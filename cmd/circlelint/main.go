// Command circlelint runs the project's determinism and concurrency
// static-analysis suite (internal/lint) over every package in the
// module and reports findings as file:line:col diagnostics. It exits 1
// when any finding survives, so `make lint` gates the build.
//
// Usage:
//
//	circlelint [-checks maporder,floateq] [-json] [-list] [dir]
//
// dir defaults to the current directory; the module root is located by
// walking upward to the nearest go.mod. The module is parsed and
// type-checked exactly once; file-scoped checks run per package and
// module-scoped checks (layering, atomicmisuse, gostmt) run once over
// the shared module view with the repo's layer map and goroutine
// allowlist (lint.DefaultConfig). With -json, findings are emitted as a single JSON array of
// {file, line, col, check, scope, message, chain} objects (an empty
// array for a clean tree; chain only on import-graph findings) for
// machine consumers such as CI annotators. Findings are suppressed with
//
//	//lint:ignore <check> <reason>
//
// on the offending line or the line above it; the reason is mandatory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gpluscircles/internal/cliflag"
	"gpluscircles/internal/lint"
)

func main() {
	code, err := run(os.Stdout, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "circlelint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes the lint pass and returns the process exit code: 0 for a
// clean tree, 1 when diagnostics were printed.
func run(w *os.File, args []string) (int, error) {
	fs := flag.NewFlagSet("circlelint", flag.ContinueOnError)
	var (
		checks   = fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
		list     = fs.Bool("list", false, "list the available checks and exit")
		jsonMode = cliflag.JSON(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(w, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}
	if fs.NArg() > 1 {
		return 0, errors.New("usage: circlelint [flags] [dir]")
	}
	dir := "."
	if fs.NArg() == 1 {
		dir = fs.Arg(0)
	}

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		return 0, err
	}

	root, err := lint.FindModuleRoot(dir)
	if err != nil {
		return 0, err
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		return 0, err
	}
	diags := lint.NewModule(pkgs).Run(analyzers, lint.DefaultConfig())
	if *jsonMode {
		if err := writeJSON(w, root, diags); err != nil {
			return 0, err
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(w, relativize(root, d))
		}
		if len(diags) > 0 {
			fmt.Fprintf(w, "circlelint: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1, nil
	}
	return 0, nil
}

// jsonDiagnostic is the machine-readable finding shape emitted by -json.
type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Scope   string `json:"scope"`
	Message string `json:"message"`
	// Chain is the offending import chain (importer first) on
	// import-graph findings (layering); empty otherwise.
	Chain []string `json:"chain,omitempty"`
}

// writeJSON emits every diagnostic as one JSON array (empty for a clean
// tree), with filenames relativized to the module root.
func writeJSON(w io.Writer, root string, diags []lint.Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		out = append(out, jsonDiagnostic{
			File:    file,
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Check:   d.Check,
			Scope:   d.Scope.String(),
			Message: d.Message,
			Chain:   d.Chain,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// selectAnalyzers resolves the -checks flag to an analyzer list.
func selectAnalyzers(spec string) ([]*lint.Analyzer, error) {
	if spec == "" {
		return lint.All(), nil
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a := lint.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown check %q (run with -list)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, errors.New("-checks selected no analyzers")
	}
	return out, nil
}

// relativize shortens a diagnostic's filename to be root-relative for
// stable, readable output.
func relativize(root string, d lint.Diagnostic) string {
	if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		d.Pos.Filename = rel
	}
	return d.String()
}
