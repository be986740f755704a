package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"sort"
	"strings"
	"testing"
)

// benchJSONPackages are the package directories, relative to the module
// root, that the Makefile's bench-json recipe runs the pattern over.
var benchJSONPackages = []string{".", "internal/cluster"}

// TestBenchJSONPatternHasNoSilentGaps parses BENCH_JSON_PATTERN from the
// Makefile and requires every benchmark name it spells out to exist as a
// func Benchmark… in the packages bench-json runs. A renamed or moved
// benchmark would otherwise just drop its row from BENCH_results.json.
func TestBenchJSONPatternHasNoSilentGaps(t *testing.T) {
	root := filepath.Join("..", "..")
	pattern := benchJSONPattern(t, filepath.Join(root, "Makefile"))
	names, err := expandFinite(pattern)
	if err != nil {
		t.Fatalf("BENCH_JSON_PATTERN %q: %v", pattern, err)
	}
	if len(names) == 0 {
		t.Fatalf("BENCH_JSON_PATTERN %q names no benchmark", pattern)
	}
	have := map[string]bool{}
	for _, dir := range benchJSONPackages {
		for _, name := range benchmarkFuncs(t, filepath.Join(root, dir)) {
			have[name] = true
		}
	}
	for _, name := range names {
		if !have[name] {
			t.Errorf("BENCH_JSON_PATTERN names %s, but no func %s exists in %v", name, name, benchJSONPackages)
		}
	}
}

// benchJSONPattern returns the regular expression the Makefile assigns to
// BENCH_JSON_PATTERN, unquoted and with make's $$ escape undone.
func benchJSONPattern(t *testing.T, makefile string) string {
	t.Helper()
	src, err := os.ReadFile(makefile)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^BENCH_JSON_PATTERN\s*=\s*'([^']*)'\s*$`).FindSubmatch(src)
	if m == nil {
		t.Fatalf("%s: no BENCH_JSON_PATTERN = '…' assignment", makefile)
	}
	return strings.ReplaceAll(string(m[1]), "$$", "$")
}

// benchmarkFuncs lists the top-level func Benchmark… declarations in the
// _test.go files of dir.
func benchmarkFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

// expandFinite returns every string the regular expression matches in
// full, sorted, when that language is finite: literals, small character
// classes, concatenation, alternation, groups, ? and the text anchors.
// Anything else is an error, so a pattern this test cannot enumerate fails
// loudly instead of being checked partially.
func expandFinite(pattern string) ([]string, error) {
	re, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		return nil, err
	}
	out, err := expand(re)
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

func expand(re *syntax.Regexp) ([]string, error) {
	switch re.Op {
	case syntax.OpLiteral:
		return []string{string(re.Rune)}, nil
	case syntax.OpEmptyMatch, syntax.OpBeginText, syntax.OpEndText, syntax.OpBeginLine, syntax.OpEndLine:
		return []string{""}, nil
	case syntax.OpCharClass:
		// The parser folds single-character alternatives (X|Y) into a class.
		var out []string
		for i := 0; i+1 < len(re.Rune) && len(out) <= 64; i += 2 {
			for r := re.Rune[i]; r <= re.Rune[i+1] && len(out) <= 64; r++ {
				out = append(out, string(r))
			}
		}
		if len(out) <= 64 {
			return out, nil
		}
	case syntax.OpCapture:
		return expand(re.Sub[0])
	case syntax.OpQuest:
		sub, err := expand(re.Sub[0])
		return append([]string{""}, sub...), err
	case syntax.OpAlternate:
		var out []string
		for _, s := range re.Sub {
			sub, err := expand(s)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
		}
		return out, nil
	case syntax.OpConcat:
		out := []string{""}
		for _, s := range re.Sub {
			sub, err := expand(s)
			if err != nil {
				return nil, err
			}
			var next []string
			for _, prefix := range out {
				for _, suffix := range sub {
					next = append(next, prefix+suffix)
				}
			}
			out = next
		}
		return out, nil
	}
	return nil, fmt.Errorf("cannot enumerate %s", re)
}

// TestExpandFinite pins the enumerator on the pattern shapes the Makefile
// uses, and its refusal of open-ended ones.
func TestExpandFinite(t *testing.T) {
	got, err := expandFinite(`Benchmark(A|B(Cold)?|C(X|Y))$`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BenchmarkA", "BenchmarkB", "BenchmarkBCold", "BenchmarkCX", "BenchmarkCY"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("expandFinite = %v, want %v", got, want)
	}
	for _, open := range []string{`Benchmark.*`, `Benchmark[^A]`, `BenchmarkA+`} {
		if _, err := expandFinite(open); err == nil {
			t.Errorf("expandFinite(%q) enumerated an open-ended pattern", open)
		}
	}
}
