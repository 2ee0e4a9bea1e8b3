package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"gpluscircles/internal/core"
	"gpluscircles/internal/obs"
)

// reportScale keeps the default scale's layer ranking at half the op
// time (see README.md).
const reportScale = 0.5

// reportOpSeconds is the nominal report op time on a 2-core VM; the op
// count of a run is -seconds / reportOpSeconds, rounded down, at least 3,
// so that latency_p50_ms is the middle op, not the mean of two.
const reportOpSeconds = 6

// reportOp is one finished circlebench process.
type reportOp struct {
	out   []byte
	wall  time.Duration
	cpu   time.Duration // user + system
	rssMB float64
}

// runCirclebench runs the full report as users run it, plus extra flags.
// The run manifest is disabled: it never feeds the report bytes.
func runCirclebench(ctx context.Context, cfg config, extra ...string) (*reportOp, error) {
	args := append([]string{"-scale", strconv.FormatFloat(reportScale, 'g', -1, 64),
		"-seed", strconv.FormatInt(cfg.seed, 10), "-manifest="}, extra...)
	cmd := exec.CommandContext(ctx, filepath.Join(cfg.bin, "circlebench"), args...)
	cmd.Dir = cfg.work
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := obs.Now()
	err := cmd.Run()
	op := &reportOp{out: out.Bytes(), wall: obs.Since(start)}
	if err != nil {
		return op, fmt.Errorf("circlebench %v: %w", args, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		op.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	op.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	return op, nil
}

// The scorecard ends with "N of M claims hold on this run", and the
// robustness section, which reruns the scorecard at scale 0.2 on seeds
// s, s+1 and s+2, with one of two verdicts. Which claims hold depends on
// the seed (fig6-conductance fails at seed 14, and at scale 0.2 at seed
// 11), so the checks require the lines, not a count.
var (
	scorecardRe  = regexp.MustCompile(`\d+ of \d+ claims hold on this run`)
	allSeedsHeld = []byte("Every claim held for every seed.")
	someFailed   = []byte("Claims that failed on some seed:")
)

// checkReportLines requires the scorecard summary and a robustness
// verdict.
func checkReportLines(out []byte) error {
	if !scorecardRe.Match(out) {
		return fmt.Errorf("report lacks the scorecard summary")
	}
	if !bytes.Contains(out, allSeedsHeld) && !bytes.Contains(out, someFailed) {
		return fmt.Errorf("report lacks the robustness verdict")
	}
	return nil
}

// reportReference runs circlebench -workers 1, the reference that every
// report op of the seed must reproduce byte for byte. It is a checked op
// itself: it must hold the scorecard and verdict lines, and its bytes
// must match what earlier runs recorded for the seed and scale, so a
// deterministic change of the report is caught too.
func reportReference(ctx context.Context, cfg config, res *result) (*reportOp, error) {
	ref, err := runCirclebench(ctx, cfg, "-workers", "1")
	if err != nil {
		return nil, err
	}
	res.Attempted++
	if err := checkReportLines(ref.out); err != nil {
		res.fail("-workers 1 reference: %v", err)
	}
	sum := sha256.Sum256(ref.out)
	name := fmt.Sprintf("report-seed%d-scale%g", cfg.seed, reportScale)
	if err := checkDigest(cfg, name, sum[:], res); err != nil {
		return nil, err
	}
	verdict := allSeedsHeld
	if !bytes.Contains(ref.out, allSeedsHeld) {
		verdict = someFailed
	}
	fmt.Fprintf(os.Stderr, "perfbench: report seed %d: %s; robustness: %s\n", cfg.seed, scorecardRe.Find(ref.out), verdict)
	return ref, nil
}

// generateSuite times the data-set generation of a fresh suite: every
// accessor behind core.DatasetNames.
func generateSuite(seed int64, rec *obs.Recorder) (*core.Suite, time.Duration, error) {
	start := obs.Now()
	suite := core.NewSuite(core.SuiteOptions{Scale: reportScale, Seed: seed, Recorder: rec})
	for _, name := range core.DatasetNames() {
		if _, err := suite.DatasetByName(name); err != nil {
			return nil, 0, err
		}
	}
	return suite, obs.Since(start), nil
}

// runReport is the untraced report workload: serial reference during
// set-up, then a fixed number of default-worker report processes.
func runReport(ctx context.Context, cfg config) (*result, error) {
	setups := make([]float64, 3)
	for i := range setups {
		_, d, err := generateSuite(cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		setups[i] = d.Seconds()
	}
	res := &result{Correct: true}
	ref, err := reportReference(ctx, cfg, res)
	if err != nil {
		return nil, err
	}

	n := max(cfg.seconds/reportOpSeconds, 3)
	var lat, cpu, rss []float64
	start := obs.Now()
	for i := 0; i < n; i++ {
		res.Attempted++
		op, err := runCirclebench(ctx, cfg)
		if err == nil && !bytes.Equal(op.out, ref.out) {
			err = fmt.Errorf("report (%d bytes) differs from the -workers 1 reference (%d bytes)", len(op.out), len(ref.out))
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			res.fail("%v", err)
			continue
		}
		lat = append(lat, ms(op.wall))
		cpu = append(cpu, op.cpu.Seconds()*1000)
		rss = append(rss, op.rssMB)
	}
	wall := obs.Since(start)
	if len(lat) == 0 {
		return res, nil
	}
	res.set("setup_s", median(setups), "s")
	res.set("latency_p50_ms", median(lat), "ms")
	// Too few ops for a tail percentile: the slowest op stands in.
	res.set("latency_tail_ms", quantile(lat, 1), "ms")
	res.set("throughput_ops", float64(len(lat))/wall.Seconds(), "1/s")
	res.set("cpu_ms_per_op", median(cpu), "ms")
	res.set("peak_rss_mb", median(rss), "MB")
	return res, nil
}

// tracedReport runs the checked -workers 1 reference and the traced
// in-process serial op, which must print the same bytes.
func tracedReport(ctx context.Context, cfg config, res *result) (*tracedOp, *reportOp, error) {
	ref, err := reportReference(ctx, cfg, res)
	if err != nil {
		return nil, nil, err
	}
	op, err := traceReportOp(ctx, cfg, res)
	if err != nil {
		return nil, nil, err
	}
	res.Attempted++
	if !bytes.Equal(op.out, ref.out) {
		res.fail("traced in-process report (%d bytes) differs from circlebench -workers 1 (%d bytes)", len(op.out), len(ref.out))
	}
	return op, ref, nil
}

// traceReport is the traced report workload: the serial reference run
// is the untraced op and the in-process serial op with spans the traced
// one.
func traceReport(ctx context.Context, cfg config) (*result, error) {
	res := &result{Correct: true}
	op, ref, err := tracedReport(ctx, cfg, res)
	if err != nil {
		return nil, err
	}
	res.set("trace.overhead_ms", ms(op.wall-ref.wall), "ms")
	if err := probeLayers(ctx, cfg, op.suite, res); err != nil {
		return nil, err
	}
	// The report path never reaches circled: serve numbers come from a
	// short query-mix pass.
	if err := probeServe(ctx, cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}
