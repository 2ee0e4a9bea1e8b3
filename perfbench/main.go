// Command perfbench is the repository's end-to-end benchmark. It drives
// the report path (the circlebench binary) and the query path (a client
// talking to a fresh circled over HTTP) from outside, checks every
// output, and prints one JSON result line:
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// With -trace 0 the result holds the end-to-end metrics of the workload;
// with -trace 1 it holds the per-layer metrics, measured by timing calls
// into each module's public functions (see README.md for the table).
// Run it from the repository root through run.sh, which builds the
// binaries it drives into .bench_build/bin.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric on the result.
func (r *result) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// fail counts one failed op and logs why.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if r.Failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: failed op: "+format+"\n", args...)
	}
}

// maxSeed keeps the per-request seeds derived from the workload seed
// (requestSeed) positive and distinct.
const maxSeed = 1e12

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // .bench_build/bin: circled, circlebench, ncpprobe
	work     string // .bench_build/work: scratch files and digests
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: report, query-mix, query-null or query-ncp")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: drives the request sequence (report: circlebench -seed)")
	flag.IntVar(&cfg.seconds, "seconds", 20, "nominal measuring time; fixes the op count of the run")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	cfg.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.Correct = res.Correct && res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config) (*result, error) {
	if cfg.seed < 0 || cfg.seed > maxSeed || cfg.seconds < 1 || cfg.workload == "" {
		return nil, fmt.Errorf("need -workload, -seed in [0, %d] and -seconds >= 1", int64(maxSeed))
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	cfg.bin = filepath.Join(root, ".bench_build", "bin")
	cfg.work = filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	if cfg.workload == "report" {
		if cfg.trace {
			return traceReport(ctx, cfg)
		}
		return runReport(ctx, cfg)
	}
	w, ok := queryWorkloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.trace {
		return traceQuery(ctx, cfg, w)
	}
	return runQuery(ctx, cfg, w)
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }
