// Command gpowerlint is the repository's static gate (DESIGN.md §9, §13). It
// type-checks the module from source once — standard library only, no
// toolchain or x/tools dependency — then runs every registered analyzer:
//
//	maporder      range-over-map bodies with order-sensitive effects
//	floateq       exact floating-point == / !=
//	ctxflow       dropped-context loops, mid-stack context.Background()/TODO()
//	senterr       sentinel-error == / !=, fmt.Errorf wrapping without %w
//	gonosync      naked go statements outside internal/parallel
//	disjointwrite non-index-derived writes to captured state in parallel
//	              closures, including mutation one method call deep
//	unitflow      MHz/volts/watts provenance conflicts in assignments and
//	              math, with cross-package inference facts
//	atomicsnap    torn atomic.Pointer snapshots: second Load in a scope,
//	              inline Load().Field inside loops
//	httpbound     handlers decoding r.Body without http.MaxBytesReader, or
//	              minting context.Background() instead of r.Context()
//	dtounits      DTO field names whose unit disagrees with their json tag
//	unusedignore  //lint:ignore directives that suppressed zero diagnostics
//
// and, over the same loaded packages, the alloccheck proof: every
// //gpower:noalloc root must be allocation-free across its whole static call
// graph, judged on production files only (_test.go files are skipped).
//
// Usage:
//
//	gpowerlint [flags] [./...]
//
//	-json             one JSON object: {"diagnostics": [...], "alloccheck": {...}}
//	-analyzers list   run only the named analyzers (comma-separated); the
//	                  alloccheck proof always runs
//	-tests=false      skip _test.go files
//	-list             print the analyzers and their invariants, then exit
//
// Text output is the lint diagnostics followed by the alloccheck report.
// Exit status: 0 clean, 1 diagnostics, bad //lint:ignore directives, an
// unproven root or a bad alloccheck directive, 2 usage, load or type-check
// failure. Findings are suppressed site-by-site with
// `//lint:ignore <analyzer> <reason>` and `//gpower:allocs <reason>`.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gpupower/internal/alloccheck"
	"gpupower/internal/lint"
	"gpupower/internal/lint/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command over explicit arguments and streams, returning
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpowerlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics and the alloccheck result as one JSON object")
	only := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	tests := fs.Bool("tests", true, "also analyze _test.go files")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "gpowerlint: %v\n", err)
		return 2
	}

	as := analyzers.All()
	if *only != "" {
		sel, ok := analyzers.ByName(*only)
		if !ok || len(sel) == 0 {
			return fail(fmt.Errorf("unknown analyzer in -analyzers=%q", *only))
		}
		as = sel
	}
	if *list {
		for _, a := range as {
			fmt.Fprintf(stdout, "%s\n    %s\n", a.Name, strings.ReplaceAll(a.Doc, "\n", "\n    "))
		}
		return 0
	}
	for _, arg := range fs.Args() {
		if arg != "./..." && arg != "..." {
			return fail(fmt.Errorf("only the ./... pattern is supported (got %q)", arg))
		}
	}

	root, modPath, err := lint.FindModule(".")
	if err != nil {
		return fail(err)
	}
	loader := lint.NewLoader(root, modPath)
	loader.Tests = *tests
	pkgs, err := loader.LoadAll()
	if err != nil {
		return fail(err)
	}
	// The full registry stays the directive vocabulary even when -analyzers
	// selects a subset: an ignore for an analyzer that merely did not run
	// this time is dormant, not unknown.
	runner := &lint.Runner{Analyzers: as, Known: analyzers.KnownNames()}
	res, err := runner.Run(pkgs)
	if err != nil {
		return fail(err)
	}
	proof := alloccheck.Check(pkgs, modPath)

	cwd, _ := os.Getwd()
	if *jsonOut {
		err = writeJSON(stdout, cwd, res, proof)
	} else if err = lint.WriteText(stdout, cwd, res.Diagnostics); err == nil {
		err = proof.WriteText(stdout, cwd)
	}
	if err != nil {
		return fail(err)
	}
	for _, derr := range res.DirectiveErrors {
		fmt.Fprintf(stderr, "gpowerlint: %v\n", derr)
	}
	if len(res.Diagnostics) > 0 || len(res.DirectiveErrors) > 0 || !proof.Clean() {
		return 1
	}
	return 0
}

// writeJSON emits both gates as one indented object, each part in the shape
// its own writer produces.
func writeJSON(w io.Writer, base string, res *lint.Result, proof *alloccheck.Result) error {
	var diags, ac bytes.Buffer
	if err := lint.WriteJSON(&diags, base, res.Diagnostics); err != nil {
		return err
	}
	if err := proof.WriteJSON(&ac, base); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Diagnostics json.RawMessage `json:"diagnostics"`
		Alloccheck  json.RawMessage `json:"alloccheck"`
	}{diags.Bytes(), ac.Bytes()})
}
