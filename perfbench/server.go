package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gpluscircles/internal/obs"
	"gpluscircles/internal/serve/api"
)

// server is one circled process started by the benchmark.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	// setup is the time from launch to the first /healthz 200.
	setup time.Duration
}

// listenRe matches the line circled prints once it is bound.
var listenRe = regexp.MustCompile(`listening on (\S+)`)

// addrWriter forwards circled's stderr and hands the bound address to
// startServer as soon as the "listening on" line appears.
type addrWriter struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	addr chan string // buffered 1: exactly one send
}

func (w *addrWriter) Write(p []byte) (int, error) {
	os.Stderr.Write(p)
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.sent {
		w.buf = append(w.buf, p...)
		if m := listenRe.FindSubmatch(w.buf); m != nil {
			w.addr <- string(m[1])
			w.sent = true
			w.buf = nil
		}
	}
	return len(p), nil
}

// startServer launches the workload's circled on an ephemeral loopback
// port with the fixed -seed 1 data and waits for its first healthy
// /healthz answer.
func startServer(ctx context.Context, bin string, w *queryWorkload) (*server, error) {
	argv := append([]string{"-addr", "127.0.0.1:0", "-seed", "1", "-manifest="}, w.args()...)
	cmd := exec.Command(filepath.Join(bin, "circled"), argv...)
	if w.procs > 0 {
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(w.procs))
	}
	aw := &addrWriter{addr: make(chan string, 1)}
	cmd.Stderr = aw
	start := obs.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start circled: %w", err)
	}
	s := &server{cmd: cmd}
	fail := func(err error) (*server, error) {
		s.stop()
		return nil, err
	}
	timeout := time.NewTimer(60 * time.Second)
	defer timeout.Stop()
	select {
	case addr := <-aw.addr:
		s.base = "http://" + addr
	case <-timeout.C:
		return fail(fmt.Errorf("circled did not report its address"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-timeout.C:
			return fail(fmt.Errorf("circled at %s never became healthy", s.base))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
	s.setup = obs.Since(start)
	return s, nil
}

// stop terminates circled (SIGTERM, then SIGKILL after 15 s) and waits
// for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	kill := time.AfterFunc(15*time.Second, func() { _ = s.cmd.Process.Kill() })
	_ = s.cmd.Wait() // exit status after SIGTERM carries no information
	kill.Stop()
}

// procStat reads circled's CPU time (user + system) and high-water RSS
// from /proc.
func (s *server) procStat() (cpu time.Duration, rssMB float64, err error) {
	pid := s.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15, in clock ticks of
	// the fixed USER_HZ = 100.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	cpu = time.Duration(utime+stime) * 10 * time.Millisecond

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return cpu, kb / 1024, nil
		}
	}
	return 0, 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// metrics fetches circled's /metrics snapshot.
func (s *server) metrics(hc *http.Client) (obs.Snapshot, error) {
	resp, err := hc.Get(s.base + "/metrics")
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	var m api.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return obs.Snapshot{}, fmt.Errorf("decode /metrics: %w", err)
	}
	return m.Metrics, nil
}

// timerDelta returns the observations a timer gained between two
// snapshots, as a TimerStat whose quantiles describe only that window.
func timerDelta(before, after obs.Snapshot, name string) obs.TimerStat {
	a, b := after.Timers[name], before.Timers[name]
	d := obs.TimerStat{Count: a.Count - b.Count, SumNs: a.SumNs - b.SumNs, MaxNs: a.MaxNs}
	for i, n := range a.Buckets {
		if n -= b.Buckets[i]; n > 0 {
			if d.Buckets == nil {
				d.Buckets = make(map[int]int64)
			}
			d.Buckets[i] = n
		}
	}
	return d
}
