package work

import "testing"

// Test files may start goroutines: no finding here.
func TestChannelJoin(t *testing.T) {
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
}
