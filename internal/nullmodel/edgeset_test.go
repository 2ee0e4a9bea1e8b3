package nullmodel

import (
	"math/rand"
	"testing"
)

// checkEdgeSet fails unless s holds exactly the keys of want: every key
// is found from its home slot, and no other slot is occupied.
func checkEdgeSet(t *testing.T, s *edgeSet, want map[uint64]bool) {
	t.Helper()
	occupied := 0
	for _, k := range s.slots {
		if k == emptyKey {
			continue
		}
		occupied++
		if !want[k] {
			t.Fatalf("slot holds %#x, which the oracle does not", k)
		}
	}
	if occupied != len(want) {
		t.Fatalf("%d occupied slots, oracle holds %d keys", occupied, len(want))
	}
	for k := range want {
		if !s.has(k) {
			t.Fatalf("has(%#x) = false for a member", k)
		}
	}
}

// applyEdgeSetOps runs a byte-coded add/has/del sequence on an edgeSet
// sized for capacity keys and on a map oracle, failing on the first
// disagreement. Each op takes two bytes: the op, and a key index into
// keys. Adds that would exceed capacity are skipped, since callers never
// make them.
func applyEdgeSetOps(t *testing.T, capacity int, keys []uint64, ops []byte) {
	t.Helper()
	var s edgeSet
	s.reset(capacity)
	want := map[uint64]bool{}
	for i := 0; i+1 < len(ops); i += 2 {
		k := keys[int(ops[i+1])%len(keys)]
		switch ops[i] % 3 {
		case 0:
			if !want[k] && len(want) >= capacity {
				continue
			}
			if got := s.add(k); got != want[k] {
				t.Fatalf("op %d: add(%#x) reported present=%v, oracle %v", i/2, k, got, want[k])
			}
			want[k] = true
		case 1:
			if got := s.has(k); got != want[k] {
				t.Fatalf("op %d: has(%#x) = %v, oracle %v", i/2, k, got, want[k])
			}
		case 2:
			s.del(k)
			delete(want, k)
		}
		checkEdgeSet(t, &s, want)
	}
}

// wrapKeys returns edge keys whose home slots, in a table sized for
// capacity keys, lie on the last two slots and the first: probe
// clusters started by them run past the end of the table.
func wrapKeys(capacity, count int) []uint64 {
	var s edgeSet
	s.reset(capacity)
	last := uint64(len(s.slots) - 1)
	var keys []uint64
	for u := int32(0); len(keys) < count; u++ {
		for v := int32(0); v < 64 && len(keys) < count; v++ {
			k := pack(u, v)
			if h := s.home(k); h == last || h == last-1 || h == 0 {
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// smallKeys is a fuzz key pool: the 32 keys over ids 0–3 plus keys that
// home on the table's edges, for a table sized for capacity keys.
func smallKeys(capacity int) []uint64 {
	keys := wrapKeys(capacity, 8)
	for u := int32(0); u < 4; u++ {
		for v := int32(0); v < 8; v++ {
			keys = append(keys, pack(u, v))
		}
	}
	return keys
}

func TestEdgeSetMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{0, 1, 2, 3, 7, 16, 100, 1000} {
		var s edgeSet
		s.reset(capacity)
		if len(s.slots) < 2*capacity || len(s.slots)&(len(s.slots)-1) != 0 {
			t.Fatalf("reset(%d): %d slots, want a power of two ≥ %d", capacity, len(s.slots), 2*capacity)
		}
		want := map[uint64]bool{}
		universe := 3*capacity + 2
		for op := 0; op < 20*universe; op++ {
			k := pack(int32(rng.Intn(universe)), int32(rng.Intn(universe)))
			switch rng.Intn(3) {
			case 0:
				if want[k] || len(want) < capacity {
					s.add(k)
					want[k] = true
				}
			case 1:
				if got := s.has(k); got != want[k] {
					t.Fatalf("capacity %d op %d: has(%#x) = %v, oracle %v", capacity, op, k, got, want[k])
				}
			case 2:
				s.del(k)
				delete(want, k)
			}
		}
		checkEdgeSet(t, &s, want)
	}
}

func TestEdgeSetWrapAroundCluster(t *testing.T) {
	const capacity = 8
	keys := wrapKeys(capacity, capacity)
	var s edgeSet
	s.reset(capacity)
	want := map[uint64]bool{}
	for _, k := range keys {
		s.add(k)
		want[k] = true
	}
	if s.slots[0] == emptyKey || s.slots[len(s.slots)-1] == emptyKey {
		t.Fatal("the cluster does not cover both ends of the table")
	}
	checkEdgeSet(t, &s, want)
	// Delete from the middle, the front and the back of the cluster,
	// checking after each that the rest stay reachable.
	for _, i := range []int{3, 0, len(keys) - 1, 1} {
		s.del(keys[i])
		delete(want, keys[i])
		checkEdgeSet(t, &s, want)
	}
	s.reset(capacity)
	checkEdgeSet(t, &s, map[uint64]bool{})
}

func TestEdgeSetResetReusesTable(t *testing.T) {
	var s edgeSet
	s.reset(100)
	s.add(pack(1, 2))
	if allocs := testing.AllocsPerRun(10, func() { s.reset(50) }); allocs != 0 {
		t.Errorf("reset to a smaller size allocated %v times", allocs)
	}
	if s.has(pack(1, 2)) {
		t.Error("reset kept a key")
	}
}

func FuzzEdgeSet(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 0, 1, 0, 2, 0, 3, 2, 1, 1, 2, 1, 3, 2, 0, 1, 3})
	f.Add(uint8(8), []byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 2, 3, 1, 4, 2, 0, 1, 7})
	f.Add(uint8(1), []byte{0, 9, 0, 10, 2, 9, 0, 10, 1, 10})
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		c := int(capacity%16) + 1
		applyEdgeSetOps(t, c, smallKeys(c), ops)
	})
}
