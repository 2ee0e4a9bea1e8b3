package lint

import "strings"

// Config is the architecture description the module-scoped analyzers
// check: the layer map for layering, and the goroutine allowlist for
// gostmt. DefaultConfig returns the repo's own map; fixture tests
// construct custom ones.
type Config struct {
	// CommandPrefix marks command packages (the binaries), which get the
	// CommandAllow list in layering. Matched as a path prefix, e.g.
	// "gpluscircles/cmd/".
	CommandPrefix string
	// GoPackages are the only packages whose non-test code may contain
	// go statements (patterns as in ForbidRule).
	GoPackages []string
	// Forbid are the layer rules: no import chain may lead from a From
	// package to a To package.
	Forbid []ForbidRule
	// CommandAllow, when non-empty, is the blessed-seam allowlist for
	// command packages: every direct module-internal import of a package
	// under CommandPrefix must match one of these patterns.
	CommandAllow []string
	// CommandRestrict narrows CommandAllow per seam: when a blessed
	// import matches a key pattern, only the command packages matching
	// that key's patterns may import it directly. This is how a package
	// stays importable by the one binary that embodies it (serve by
	// circled) without becoming a free-for-all seam — every other binary
	// must use the narrower contract package instead (serve/api).
	CommandRestrict map[string][]string
}

// ForbidRule forbids any module-internal import chain from a package
// matching From to a package matching To. Patterns are exact import
// paths or go-style prefix patterns ending in "/...".
type ForbidRule struct {
	// Name labels the rule in diagnostics, e.g. "kernels-below-core".
	Name string
	// Why is the one-line architectural reason reported with findings.
	Why  string
	From []string
	To   []string
}

// matchPattern reports whether an import path matches a pattern: exact,
// or prefix when the pattern ends in "/...".
func matchPattern(path, pattern string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == prefix || strings.HasPrefix(path, prefix+"/")
	}
	return path == pattern
}

// matchAny reports whether path matches any of the patterns.
func matchAny(path string, patterns []string) bool {
	for _, p := range patterns {
		if matchPattern(path, p) {
			return true
		}
	}
	return false
}

// DefaultConfig is the repo's own architecture map, the invariant the
// layering analyzer keeps true by construction:
//
//	foundation   obs, stats, powerlaw, report, cliflag, par
//	graph        graph (CSR core; imports only obs)
//	kernels      score, graphalgo, sample
//	domain       synth, nullmodel, detect, feature, dataset
//	orchestration core
//	serving      serve
//	tools        lint, experiments (import nothing module-internal)
//	commands     cmd/* (blessed seams only)
//
// Lower layers must never reach up: an algorithm kernel importing the
// orchestrator (or anything importing a cmd package) is a cycle waiting
// to happen and makes the kernel untestable in isolation.
func DefaultConfig() *Config {
	const mod = "gpluscircles"
	layer := func(pkgs ...string) []string {
		out := make([]string, len(pkgs))
		for i, p := range pkgs {
			out[i] = mod + "/internal/" + p
		}
		return out
	}
	foundation := layer("obs", "stats", "powerlaw", "report", "cliflag", "par")
	below := layer("obs", "stats", "powerlaw", "report", "cliflag", "par",
		"graph", "score", "graphalgo", "sample",
		"synth", "nullmodel", "detect", "feature", "dataset")
	return &Config{
		CommandPrefix: mod + "/cmd/",
		// par.For's workers and the serving pool, plus perfbench's load
		// clients (a separate module the walk loads under this path).
		GoPackages: []string{mod + "/internal/par", mod + "/internal/serve", mod + "/perfbench"},
		Forbid: []ForbidRule{
			{
				Name: "no-upward-imports",
				Why:  "algorithm and data layers must stay usable without the orchestrator or the service",
				From: below,
				To:   []string{mod + "/internal/core", mod + "/internal/serve/...", mod + "/cmd/..."},
			},
			{
				Name: "core-below-serve",
				Why:  "the experiment orchestrator must not depend on the serving layer or the binaries",
				From: []string{mod + "/internal/core"},
				To:   []string{mod + "/internal/serve/...", mod + "/cmd/..."},
			},
			{
				Name: "foundation-is-leaf",
				Why:  "observability, stats, report and fan-out primitives must not depend on graph or domain code",
				From: foundation,
				To: layer("graph", "score", "graphalgo", "sample",
					"synth", "nullmodel", "detect", "feature", "dataset"),
			},
			{
				Name: "tools-standalone",
				Why:  "the static-analysis engine and the experiments registry are self-contained by design",
				From: layer("lint", "experiments"),
				To:   []string{mod + "/internal/...", mod + "/cmd/..."},
			},
		},
		// The blessed seams a binary may touch directly. Notably absent:
		// nullmodel, sample, feature, stats — binaries reach those through
		// core's orchestration or score's interfaces, never directly.
		// serve/api is the wire contract every serving-tier client shares;
		// serve itself is restricted below to the binary that embodies it.
		CommandAllow: layer("cliflag", "core", "dataset", "detect", "experiments",
			"graph", "graphalgo", "lint", "ncp", "obs", "par", "powerlaw", "report",
			"score", "serve", "serve/api", "synth"),
		CommandRestrict: map[string][]string{
			mod + "/internal/serve": {mod + "/cmd/circled"},
		},
	}
}
