package lint

import (
	"fmt"
	"sort"
	"strings"
)

// UnusedIgnoreName is the name of the engine-level analyzer that reports
// //lint:ignore directives which suppressed nothing. Unlike the syntactic
// analyzers it cannot be a plain Pass over one package's AST: it needs the
// outcome of suppression, so the Runner computes it after folding every
// other analyzer's findings through the directives. The analyzers package
// registers a descriptor under this name so the check participates in
// -list, -analyzers selection and linttest fixtures like any other.
const UnusedIgnoreName = "unusedignore"

// Runner applies a set of analyzers to loaded packages and folds the results
// through the suppression directives.
type Runner struct {
	Analyzers []*Analyzer
	// Known is the set of analyzer names accepted in //lint:ignore
	// directives. It defaults to the names of Analyzers, but callers running
	// a subset (gpowerlint -analyzers maporder) should set it to the full
	// registry so directives for analyzers that merely did not run this time
	// are not rejected as unknown.
	Known map[string]bool
}

// Result is the outcome of one lint run.
type Result struct {
	// Diagnostics are the surviving (unsuppressed) findings in
	// deterministic (file, line, col, analyzer, message) order.
	Diagnostics []Diagnostic
	// DirectiveErrors are malformed or unknown-analyzer //lint:ignore
	// directives. They fail the run: a suppression that does not parse is
	// not silently discarded.
	DirectiveErrors []error
	// Suppressed counts findings removed by valid directives.
	Suppressed int
}

// validate checks the analyzer set and returns the known-name map used for
// directive parsing.
func (r *Runner) validate() (map[string]bool, error) {
	names := make(map[string]bool, len(r.Analyzers))
	for _, a := range r.Analyzers {
		if a.Name == "" || a.Run == nil {
			return nil, fmt.Errorf("lint: analyzer %q is incomplete", a.Name)
		}
		if names[a.Name] {
			return nil, fmt.Errorf("lint: duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	known := r.Known
	if known == nil {
		known = names
	}
	return known, nil
}

// Run analyzes every package serially, then folds the findings through the
// //lint:ignore directives. Analyzer errors (not diagnostics) abort the run.
// A directive only suppresses diagnostics in its own file, so the fold does
// not depend on package order. One fact store spans the run, so
// cross-package facts are derived once; it is dropped with the run, so its
// memory — which pins the Loader's type graph and ASTs — is reclaimable
// afterwards.
func (r *Runner) Run(pkgs []*Package) (*Result, error) {
	known, err := r.validate()
	if err != nil {
		return nil, err
	}
	runSet := make(map[string]bool, len(r.Analyzers))
	reportUnused := false
	for _, a := range r.Analyzers {
		if a.Name == UnusedIgnoreName {
			reportUnused = true
			continue
		}
		runSet[a.Name] = true
	}

	facts := NewFactStore()
	res := &Result{}
	var all []Diagnostic
	var ignores []Ignore
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("lint: package %s has type errors: %w", pkg.Path, pkg.TypeErrors[0])
		}
		for _, f := range pkg.Files {
			igs, errs := ParseIgnores(pkg.Fset, f, known)
			ignores = append(ignores, igs...)
			res.DirectiveErrors = append(res.DirectiveErrors, errs...)
		}
		for _, a := range r.Analyzers {
			if a.Name == UnusedIgnoreName {
				continue // engine-level: computed below, after suppression
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Deps:     pkg.Dep,
				diags:    &all,
				facts:    facts,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}

	hits := make([]int, len(ignores))
	for _, d := range all {
		if i := suppressedBy(d, ignores); i >= 0 {
			hits[i]++
			res.Suppressed++
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}

	if reportUnused {
		unused := unusedIgnores(ignores, hits, runSet)
		// Unused-ignore findings are themselves suppressible — a directive
		// whose analyzer list includes "unusedignore" is exempt by
		// construction (see unusedIgnores), so no fixpoint is needed.
		for _, d := range unused {
			if i := suppressedBy(d, ignores); i >= 0 {
				res.Suppressed++
				continue
			}
			res.Diagnostics = append(res.Diagnostics, d)
		}
	}
	SortDiagnostics(res.Diagnostics)
	return res, nil
}

// unusedIgnores turns zero-hit directives into diagnostics. A directive is
// reported only when a verdict is possible and meaningful:
//
//   - every analyzer it names actually ran (a directive for ctxflow is not
//     "unused" merely because this run selected -analyzers floateq), and
//   - it does not name unusedignore itself — //lint:ignore a,unusedignore
//     is the sanctioned "keep even if currently unused" escape hatch.
func unusedIgnores(ignores []Ignore, hits []int, runSet map[string]bool) []Diagnostic {
	var out []Diagnostic
	for i := range ignores {
		ig := &ignores[i]
		if hits[i] > 0 {
			continue
		}
		decidable := true
		for _, name := range ig.Analyzers {
			if name == UnusedIgnoreName {
				decidable = false
				break
			}
			if !runSet[name] {
				decidable = false
				break
			}
		}
		if !decidable {
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: UnusedIgnoreName,
			Pos:      ig.Pos,
			Message: fmt.Sprintf("//lint:ignore %s directive suppressed no diagnostics: the guarded code moved or was fixed, so delete the directive (or add unusedignore to its analyzer list to keep it deliberately)",
				strings.Join(ig.Analyzers, ",")),
		})
	}
	return out
}

// SortDiagnostics orders diagnostics by (file, line, col, analyzer, message)
// — the engine's canonical deterministic report order.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// suppressedBy returns the index of the first directive matching d, or -1.
func suppressedBy(d Diagnostic, ignores []Ignore) int {
	for i := range ignores {
		if ignores[i].Matches(d.Analyzer, d.Pos) {
			return i
		}
	}
	return -1
}
