package lint

import (
	"fmt"
	"go/token"
	"strings"
	"testing"
	"time"
)

// TestImporterChain type-checks a cycle-free local-import chain
// (chainmod/a → chainmod/b → chainmod/c → strings) through the recursive
// in-module importer, asserting local resolution, memoization and stdlib
// delegation. Memoization is checked by *Package identity — the identity
// cross-package facts key on: a dependency reached through an import, by
// Dep, and by an explicit reload is one object.
func TestImporterChain(t *testing.T) {
	l := NewLoader("testdata/chain", "chainmod")
	pkg, err := l.Load("chainmod/a")
	if err != nil {
		t.Fatalf("load chainmod/a: %v", err)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	if pkg.Types.Name() != "a" {
		t.Errorf("package name = %q, want a", pkg.Types.Name())
	}
	if pkg.Types.Scope().Lookup("Top") == nil {
		t.Error("chainmod/a lost its Top declaration")
	}

	// The chain must have pulled b and c in transitively, memoized.
	for _, dep := range []string{"chainmod/b", "chainmod/c"} {
		viaDep, ok := pkg.Dep(dep)
		if !ok {
			t.Fatalf("transitive dependency %s was not loaded", dep)
		}
		reloaded, err := l.Load(dep)
		if err != nil {
			t.Fatalf("reload %s: %v", dep, err)
		}
		if reloaded != viaDep {
			t.Errorf("%s was re-loaded instead of memoized", dep)
		}
	}
	b, _ := l.Load("chainmod/b")
	if imps := pkg.Types.Imports(); len(imps) != 1 || imps[0] != b.Types {
		t.Errorf("chainmod/a imports %v, want exactly the memoized chainmod/b", imps)
	}
	if again, err := l.Load("chainmod/a"); err != nil || again != pkg {
		t.Errorf("reload chainmod/a = %p, %v; want the memoized %p", again, err, pkg)
	}

	// Leaf's stdlib import went through the delegating importer.
	c, err := l.Load("chainmod/c")
	if err != nil {
		t.Fatal(err)
	}
	foundStrings := false
	for _, imp := range c.Types.Imports() {
		if imp.Path() == "strings" {
			foundStrings = true
		}
	}
	if !foundStrings {
		t.Error("chainmod/c does not record its strings import")
	}

	// Discovery sees exactly the three chain packages, in sorted order.
	paths, err := l.Discover()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"chainmod/a", "chainmod/b", "chainmod/c"}
	if len(paths) != len(want) {
		t.Fatalf("Discover = %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("Discover = %v, want %v", paths, want)
		}
	}
}

// TestImporterRejectsLocalCycle: go/types cannot represent import cycles, so
// the recursive importer must refuse them with a diagnosable error instead
// of recursing forever — whichever package of the cycle the load starts
// from, for the two-package ring and the a→b→c→a shape alike.
func TestImporterRejectsLocalCycle(t *testing.T) {
	for _, tc := range []struct {
		dir, mod string
		roots    []string
	}{
		{"testdata/cycle", "cyclemod", []string{"x", "y"}},
		{"testdata/cycle3", "cycle3mod", []string{"a", "b", "c"}},
	} {
		for _, root := range tc.roots {
			path := tc.mod + "/" + root
			l := NewLoader(tc.dir, tc.mod)
			_, err := l.Load(path)
			if err == nil {
				t.Errorf("loading the cyclic import chain from %s succeeded", path)
				continue
			}
			if !strings.Contains(err.Error(), "import cycle through") {
				t.Errorf("%s: error does not mention the cycle: %v", path, err)
			}
		}
	}
}

// loadEach runs fn once per goroutine, each goroutine owning its own Loader,
// and fails the test if any goroutine has not returned within the limit — a
// loader that recursed forever on a cycle would hang here instead.
func loadEach(t *testing.T, goroutines int, fn func(i int)) {
	t.Helper()
	done := make(chan struct{}, goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			fn(i)
		}(i)
	}
	for i := 0; i < goroutines; i++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%d of %d loads did not return", goroutines-i, goroutines)
		}
	}
}

// TestConcurrentLoadSingleFlight: a Loader is serial, but separate Loaders
// share no state, so goroutines that each own one may load at the same time
// (the race detector checks this). Within each Loader every path is
// type-checked once: interleaved reloads all return the same *Package, the
// identity cross-package facts key on, and no *Package leaks between
// Loaders.
func TestConcurrentLoadSingleFlight(t *testing.T) {
	paths := []string{"chainmod/a", "chainmod/b", "chainmod/c"}
	const goroutines = 6
	got := make([][]*Package, goroutines)
	loadEach(t, goroutines, func(i int) {
		l := NewLoader("testdata/chain", "chainmod")
		first := make([]*Package, len(paths))
		for round := 0; round < 3; round++ {
			for k := range paths {
				j := (i + k + round) % len(paths)
				p, err := l.Load(paths[j])
				if err != nil {
					t.Errorf("goroutine %d: load %s: %v", i, paths[j], err)
					return
				}
				if first[j] == nil {
					first[j] = p
				} else if p != first[j] {
					t.Errorf("goroutine %d: %s was re-loaded instead of memoized", i, paths[j])
				}
			}
		}
		got[i] = first
	})
	for i := 1; i < goroutines; i++ {
		if got[i] == nil || got[0] == nil {
			continue
		}
		for j, p := range got[i] {
			if p == got[0][j] {
				t.Errorf("goroutine %d shares the *Package for %s with another Loader", i, paths[j])
			}
		}
	}
}

// cycleLoads loads each root of a cyclic fixture in turn through one Loader
// and reports every load that did not fail with an import-cycle error. The
// first load meets the cycle while it is in progress; the later ones must
// get the same failure back from the memo rather than recurse.
func cycleLoads(dir, mod string, roots []string) []string {
	l := NewLoader(dir, mod)
	var bad []string
	for _, r := range roots {
		path := mod + "/" + r
		if _, err := l.Load(path); err == nil || !strings.Contains(err.Error(), "cycle") {
			bad = append(bad, fmt.Sprintf("%s: err = %v", path, err))
		}
	}
	return bad
}

// TestConcurrentCycleLoadErrorsNotDeadlocks loads the two halves of the
// cyclemod import cycle, in both orders, from Loaders on separate goroutines.
// Every load returns, and every one reports the cycle.
func TestConcurrentCycleLoadErrorsNotDeadlocks(t *testing.T) {
	orders := [][]string{{"x", "y"}, {"y", "x"}}
	loadEach(t, 2*len(orders), func(i int) {
		for _, bad := range cycleLoads("testdata/cycle", "cyclemod", orders[i%len(orders)]) {
			t.Errorf("goroutine %d: %s", i, bad)
		}
	})
}

// TestConcurrentThreePackageCycle does the same for the a→b→c→a cycle, from
// the root subsets that once deadlocked the concurrent loader — {a, c},
// {b, a} and all three — so a load can start anywhere on the ring, including
// at a package an earlier load left failed partway round.
func TestConcurrentThreePackageCycle(t *testing.T) {
	picks := [][]string{{"a", "c"}, {"b", "a"}, {"a", "b", "c"}, {"c", "b", "a"}}
	loadEach(t, len(picks), func(i int) {
		for _, bad := range cycleLoads("testdata/cycle3", "cycle3mod", picks[i]) {
			t.Errorf("roots %v: %s", picks[i], bad)
		}
	})
}

// TestLoadAllModule smoke-loads the real module through the loader — the
// exact path cmd/gpowerlint takes — and asserts every package type-checks.
func TestLoadAllModule(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check in -short mode")
	}
	root, modPath := "../..", "gpupower"
	l := NewLoader(root, modPath)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("LoadAll found only %d packages", len(pkgs))
	}
	seen := make(map[string]bool)
	for _, p := range pkgs {
		if seen[p.Path] {
			t.Errorf("duplicate package %s", p.Path)
		}
		seen[p.Path] = true
		if len(p.TypeErrors) != 0 {
			t.Errorf("%s: type errors: %v", p.Path, p.TypeErrors)
		}
	}
	// The external test packages ride along as "_test" siblings.
	if !seen["gpupower_test"] {
		t.Error("root external test package was not hoisted")
	}
}

// TestPassIsTestFile covers the _test.go exemption plumbing analyzers rely on.
func TestPassIsTestFile(t *testing.T) {
	fset := token.NewFileSet()
	base1 := fset.AddFile("pkg.go", -1, 100)
	base2 := fset.AddFile("pkg_test.go", -1, 100)
	p := &Pass{Fset: fset}
	if p.IsTestFile(base1.Pos(0)) {
		t.Error("pkg.go classified as a test file")
	}
	if !p.IsTestFile(base2.Pos(0)) {
		t.Error("pkg_test.go not classified as a test file")
	}
}
