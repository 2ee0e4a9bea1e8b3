package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one parsed benchmark line: iteration count plus the
// -benchmem metrics. B/op and allocs/op are -1 when the line carried no
// memory columns (run without -benchmem).
type benchResult struct {
	Name     string
	N        int64
	NsPerOp  float64
	BPerOp   int64
	AllocsOp int64
}

// testEvent is the subset of the `go test -json` (test2json) event
// stream the comparer needs.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// benchLineRE matches a complete benchmark result line as emitted by
// the testing package, e.g.
//
//	BenchmarkFoo-8   	      10	 123456 ns/op	    4096 B/op	      12 allocs/op
var benchLineRE = regexp.MustCompile(
	`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// benchEnvPrefix marks the runner-environment line the benchmark
// harness (bench_test.go TestMain) emits into the test2json stream, so
// parallel-speedup numbers stay interpretable across machines.
const benchEnvPrefix = "benchenv:"

// parseBenchFile reads a BENCH_*.json test2json stream and returns the
// benchmark results keyed by name plus the runner-environment line, if
// the stream carries one ("" otherwise). A -count N record carries N
// result lines per benchmark; each metric is reported as its median
// over them (medianResult). test2json may split one result line across
// several Output events (the name flushes before the metrics), so
// output is reassembled into lines before matching.
func parseBenchFile(path string) (map[string]benchResult, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()

	var out strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, "", fmt.Errorf("%s: not a go test -json stream: %w", path, err)
		}
		if ev.Action == "output" {
			out.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}

	env := ""
	samples := make(map[string][]benchResult)
	for _, line := range strings.Split(out.String(), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, benchEnvPrefix); ok && env == "" {
			env = strings.TrimSpace(rest)
			continue
		}
		m := benchLineRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		r := benchResult{Name: m[1], BPerOp: -1, AllocsOp: -1}
		r.N, _ = strconv.ParseInt(m[2], 10, 64)
		r.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			r.BPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			r.AllocsOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		samples[r.Name] = append(samples[r.Name], r)
	}
	if len(samples) == 0 {
		return nil, env, fmt.Errorf("%s: no benchmark result lines found", path)
	}
	results := make(map[string]benchResult, len(samples))
	for name, rs := range samples {
		results[name] = medianResult(rs)
	}
	return results, env, nil
}

// medianResult collapses one benchmark's samples into a result whose
// every metric is that metric's median, taken independently, so one
// noisy sample — wherever it sits in the record — cannot show up as a
// delta. A record without -benchmem has -1 in every sample, which stays
// -1.
func medianResult(rs []benchResult) benchResult {
	n := make([]int64, len(rs))
	ns := make([]float64, len(rs))
	b := make([]int64, len(rs))
	allocs := make([]int64, len(rs))
	for i, r := range rs {
		n[i], ns[i], b[i], allocs[i] = r.N, r.NsPerOp, r.BPerOp, r.AllocsOp
	}
	return benchResult{Name: rs[0].Name, N: median(n), NsPerOp: median(ns), BPerOp: median(b), AllocsOp: median(allocs)}
}

// median sorts xs in place and returns its middle value, or the mean of
// the two middle values for an even count.
func median[T int64 | float64](xs []T) T {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// deltaPct renders the relative change from old to new as a signed
// percentage (negative = improvement for all three metrics).
func deltaPct(oldV, newV float64) string {
	//lint:ignore floateq parsed metric values; zero is an exact degenerate-input sentinel, not a rounding result
	if oldV == 0 {
		//lint:ignore floateq same exact-zero sentinel as above
		if newV == 0 {
			return "  +0.0%"
		}
		return "    n/a"
	}
	return fmt.Sprintf("%+7.1f%%", (newV-oldV)/oldV*100)
}

// runCompare diffs two recorded benchmark files and prints per-benchmark
// ns/op, B/op, and allocs/op deltas. Benchmarks present in only one file
// — routine once -scale benchmarks exist on one side only — are listed
// after the table at the same column width, and a summary footer counts
// all three classes so a thin intersection is visible at a glance.
//
// failOver > 0 arms the perf ratchet: an error is returned (so the
// command exits non-zero) when any shared benchmark's ns/op, B/op, or
// allocs/op regressed by more than failOver percent. Memory metrics are
// ratcheted only when both sides recorded them (-benchmem); a benchmark
// that went from exactly 0 B/op or 0 allocs/op to a nonzero value is
// always a breach — those zeros are design guarantees, not noise. When
// the two files' benchenv lines differ every breach is downgraded to an
// advisory note — deltas measured on different runners reflect hardware,
// not code, and must not fail a build (allocation counts are
// deterministic, but one consistent rule is easier to reason about than
// a per-metric split).
func runCompare(w io.Writer, oldPath, newPath string, failOver float64) error {
	oldRes, oldEnv, err := parseBenchFile(oldPath)
	if err != nil {
		return err
	}
	newRes, newEnv, err := parseBenchFile(newPath)
	if err != nil {
		return err
	}

	var common, oldOnly, newOnly []string
	for name := range oldRes {
		if _, ok := newRes[name]; ok {
			common = append(common, name)
		} else {
			oldOnly = append(oldOnly, name)
		}
	}
	for name := range newRes {
		if _, ok := oldRes[name]; !ok {
			newOnly = append(newOnly, name)
		}
	}
	sort.Strings(common)
	sort.Strings(oldOnly)
	sort.Strings(newOnly)

	width := len("benchmark")
	for _, group := range [][]string{common, oldOnly, newOnly} {
		for _, name := range group {
			if len(name) > width {
				width = len(name)
			}
		}
	}
	fmt.Fprintf(w, "compare: %s -> %s\n", oldPath, newPath)
	switch {
	case oldEnv != "" && newEnv != "" && oldEnv != newEnv:
		fmt.Fprintf(w, "old env: %s\nnew env: %s\nwarning: runner environments differ; deltas may reflect hardware, not code\n", oldEnv, newEnv)
	case oldEnv != "" || newEnv != "":
		env := oldEnv
		if env == "" {
			env = newEnv
		}
		fmt.Fprintf(w, "env: %s\n", env)
	}
	fmt.Fprintln(w)
	if len(common) > 0 {
		fmt.Fprintf(w, "%-*s  %14s %8s  %14s %8s  %12s %8s\n", width, "benchmark",
			"ns/op", "delta", "B/op", "delta", "allocs/op", "delta")
	}
	for _, name := range common {
		o, n := oldRes[name], newRes[name]
		fmt.Fprintf(w, "%-*s  %14.0f %s", width, name, n.NsPerOp, deltaPct(o.NsPerOp, n.NsPerOp))
		if o.BPerOp >= 0 && n.BPerOp >= 0 {
			fmt.Fprintf(w, "  %14d %s", n.BPerOp, deltaPct(float64(o.BPerOp), float64(n.BPerOp)))
		} else {
			fmt.Fprintf(w, "  %14s %8s", "-", "-")
		}
		if o.AllocsOp >= 0 && n.AllocsOp >= 0 {
			fmt.Fprintf(w, "  %12d %s", n.AllocsOp, deltaPct(float64(o.AllocsOp), float64(n.AllocsOp)))
		} else {
			fmt.Fprintf(w, "  %12s %8s", "-", "-")
		}
		fmt.Fprintln(w)
	}
	for _, name := range oldOnly {
		fmt.Fprintf(w, "%-*s  only in %s\n", width, name, oldPath)
	}
	for _, name := range newOnly {
		fmt.Fprintf(w, "%-*s  only in %s\n", width, name, newPath)
	}
	fmt.Fprintf(w, "\n%d compared, %d only in %s, %d only in %s\n",
		len(common), len(oldOnly), oldPath, len(newOnly), newPath)

	if failOver > 0 {
		var regressed []string
		for _, name := range common {
			o, n := oldRes[name], newRes[name]
			if o.NsPerOp > 0 {
				if pct := (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100; pct > failOver {
					regressed = append(regressed, fmt.Sprintf("%s ns/op %+.1f%%", name, pct))
				}
			}
			regressed = append(regressed, memBreach(name, "B/op", o.BPerOp, n.BPerOp, failOver)...)
			regressed = append(regressed, memBreach(name, "allocs/op", o.AllocsOp, n.AllocsOp, failOver)...)
		}
		envMismatch := oldEnv != "" && newEnv != "" && oldEnv != newEnv
		switch {
		case len(regressed) == 0:
			fmt.Fprintf(w, "fail-over: no shared benchmark regressed beyond %g%% on ns/op, B/op, or allocs/op\n", failOver)
		case envMismatch:
			fmt.Fprintf(w, "advisory: %d metric(s) regressed beyond %g%% (%s) but the runner environments differ; not failing\n",
				len(regressed), failOver, strings.Join(regressed, ", "))
		default:
			return fmt.Errorf("%d metric(s) regressed beyond %g%%: %s",
				len(regressed), failOver, strings.Join(regressed, ", "))
		}
	}
	return nil
}

// memBreach applies the ratchet to one memory metric of one benchmark.
// A -1 sentinel on either side (recorded without -benchmem) skips the
// check; 0 -> nonzero breaches regardless of the percentage threshold,
// because a zero-allocation guarantee has no relative scale to regress
// against.
func memBreach(name, metric string, oldV, newV int64, failOver float64) []string {
	if oldV < 0 || newV < 0 {
		return nil
	}
	if oldV == 0 {
		if newV > 0 {
			return []string{fmt.Sprintf("%s %s 0 -> %d", name, metric, newV)}
		}
		return nil
	}
	if pct := float64(newV-oldV) / float64(oldV) * 100; pct > failOver {
		return []string{fmt.Sprintf("%s %s %+.1f%%", name, metric, pct)}
	}
	return nil
}
