package alloccheck_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpupower/internal/alloccheck"
	"gpupower/internal/lint"
)

// runFixture proves a GOPATH-style fixture tree under testdata/<name>/src.
func runFixture(t *testing.T, fixture string) *alloccheck.Result {
	t.Helper()
	return checkModule(t, filepath.Join("testdata", fixture, "src"), "")
}

// checkModule loads every package under dir from scratch, tests included —
// the load cmd/gpowerlint shares with its analyzers — and proves it.
func checkModule(t *testing.T, dir, modPath string) *alloccheck.Result {
	t.Helper()
	pkgs, err := lint.NewLoader(dir, modPath).LoadAll()
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	return alloccheck.Check(pkgs, modPath)
}

func rootsByName(t *testing.T, res *alloccheck.Result) map[string]*alloccheck.RootResult {
	t.Helper()
	m := make(map[string]*alloccheck.RootResult, len(res.Roots))
	for i := range res.Roots {
		m[res.Roots[i].Func] = &res.Roots[i]
	}
	return m
}

// chainEnd follows a finding's Underlying chain to the direct site that
// started the propagation.
func chainEnd(s *alloccheck.Site) *alloccheck.Site {
	for s.Underlying != nil {
		s = s.Underlying
	}
	return s
}

func hasCategory(r *alloccheck.RootResult, cat alloccheck.Category) bool {
	for i := range r.Findings {
		if r.Findings[i].Cat == cat {
			return true
		}
	}
	return false
}

func TestTaxonomy(t *testing.T) {
	res := runFixture(t, "taxonomy")
	if len(res.DirectiveErrors) != 0 {
		t.Fatalf("unexpected directive errors: %v", res.DirectiveErrors)
	}
	roots := rootsByName(t, res)

	clean, ok := roots["tax.Clean"]
	if !ok {
		t.Fatal("root tax.Clean not found")
	}
	if !clean.Proven || len(clean.Findings) != 0 {
		t.Fatalf("tax.Clean: proven=%v findings=%v, want proven with none", clean.Proven, clean.Findings)
	}

	want := map[string]alloccheck.Category{
		"tax.UseMake":          alloccheck.CatMake,
		"tax.UseNew":           alloccheck.CatNew,
		"tax.UseAppend":        alloccheck.CatAppend,
		"tax.UseSliceLit":      alloccheck.CatComposite,
		"tax.UseAddrComposite": alloccheck.CatComposite,
		"tax.UseMapInsert":     alloccheck.CatMapInsert,
		"tax.UseConcat":        alloccheck.CatStringConcat,
		"tax.UseConv":          alloccheck.CatStringConv,
		"tax.UseBox":           alloccheck.CatIfaceBox,
		"tax.UseClosure":       alloccheck.CatClosure,
		"tax.UseVariadic":      alloccheck.CatVariadic,
		"tax.UseDeferLoop":     alloccheck.CatDeferLoop,
		"tax.UseChan":          alloccheck.CatChan,
		"tax.UseGo":            alloccheck.CatGo,
		"tax.UseFormat":        alloccheck.CatFormat,
		"tax.UseExtern":        alloccheck.CatExtern,
		"tax.UseDynamicFunc":   alloccheck.CatDynamic,
		"tax.UseDynamicIface":  alloccheck.CatDynamic,
	}
	for name, cat := range want {
		r, ok := roots[name]
		if !ok {
			t.Errorf("root %s not found", name)
			continue
		}
		if r.Proven {
			t.Errorf("%s: proven, want a %s finding", name, cat)
			continue
		}
		if !hasCategory(r, cat) {
			t.Errorf("%s: no %s finding in %v", name, cat, r.Findings)
		}
	}

	if res.RootCount != len(want)+1 {
		t.Errorf("RootCount = %d, want %d", res.RootCount, len(want)+1)
	}
	if res.ProvenCount != 1 {
		t.Errorf("ProvenCount = %d, want 1 (only tax.Clean)", res.ProvenCount)
	}
	if res.Clean() {
		t.Error("Clean() = true with seeded allocation sites")
	}
}

func TestInterprocedural(t *testing.T) {
	res := runFixture(t, "interproc")
	if len(res.DirectiveErrors) != 0 {
		t.Fatalf("unexpected directive errors: %v", res.DirectiveErrors)
	}
	roots := rootsByName(t, res)

	for name, fns := range map[string]int{
		"ip.CleanChain": 3, // CleanChain, hop1, hop2
		"ip.CleanCycle": 3, // CleanCycle, isEven, isOdd
		"ip.CrossClean": 2, // CrossClean, dep.Mul
	} {
		r, ok := roots[name]
		if !ok {
			t.Errorf("root %s not found", name)
			continue
		}
		if !r.Proven {
			t.Errorf("%s: not proven: %v", name, r.Findings)
		}
		if r.Functions != fns {
			t.Errorf("%s: walked %d functions, want %d", name, r.Functions, fns)
		}
	}

	for name, hop := range map[string]string{
		"ip.DirtyChain": "mid",
		"ip.DirtyCycle": "cycA",
		"ip.CrossDirty": "dep.Alloc",
	} {
		r, ok := roots[name]
		if !ok {
			t.Errorf("root %s not found", name)
			continue
		}
		if r.Proven {
			t.Errorf("%s: proven, want an allocation finding", name)
			continue
		}
		if len(r.Findings) != 1 {
			t.Errorf("%s: %d findings, want 1: %v", name, len(r.Findings), r.Findings)
			continue
		}
		f := &r.Findings[0]
		if f.Cat != alloccheck.CatCall {
			t.Errorf("%s: finding category %s, want %s", name, f.Cat, alloccheck.CatCall)
		}
		if !strings.Contains(f.Callee, hop) {
			t.Errorf("%s: callee %q, want it to name %q", name, f.Callee, hop)
		}
		if end := chainEnd(f); end.Cat != alloccheck.CatMake {
			t.Errorf("%s: propagation chain ends in %s, want %s", name, end.Cat, alloccheck.CatMake)
		}
	}

	// The two-hop chain must surface both intermediate calls before the
	// direct make site: DirtyChain -> mid -> bottom -> make.
	dc := roots["ip.DirtyChain"]
	if dc != nil && !dc.Proven && len(dc.Findings) == 1 {
		f := &dc.Findings[0]
		if f.Underlying == nil || f.Underlying.Cat != alloccheck.CatCall ||
			!strings.Contains(f.Underlying.Callee, "bottom") {
			t.Errorf("ip.DirtyChain: want a call-to-bottom hop before the make site, got %+v", f.Underlying)
		}
	}
}

func TestEscapeHatches(t *testing.T) {
	res := runFixture(t, "hatch")
	if !res.Clean() {
		t.Fatalf("hatch fixture not clean: errors=%v roots=%+v", res.DirectiveErrors, res.Roots)
	}
	if res.RootCount != 3 || res.ProvenCount != 3 {
		t.Fatalf("roots=%d proven=%d, want 3/3", res.RootCount, res.ProvenCount)
	}
	if res.HatchesUsed != 3 {
		t.Fatalf("HatchesUsed = %d, want 3 (direct, edge, trailing)", res.HatchesUsed)
	}
	roots := rootsByName(t, res)
	if r := roots["h.HatchedEdge"]; r == nil || r.Hatches != 1 {
		t.Fatalf("h.HatchedEdge: %+v, want exactly 1 hatch applied", r)
	}
}

func TestDirectiveErrors(t *testing.T) {
	res := runFixture(t, "direrr")
	if res.Clean() {
		t.Fatal("direrr fixture reported clean")
	}

	counts := map[string]int{
		"is missing the mandatory reason":          0,
		"misplaced":                                0,
		"suppresses no allocation site":            0,
		"on a bodyless declaration proves nothing": 0,
	}
	for _, e := range res.DirectiveErrors {
		for sub := range counts {
			if strings.Contains(e, sub) {
				counts[sub]++
			}
		}
	}
	if counts["is missing the mandatory reason"] != 1 {
		t.Errorf("reasonless-hatch errors = %d, want 1: %v", counts["is missing the mandatory reason"], res.DirectiveErrors)
	}
	if counts["misplaced"] != 2 {
		t.Errorf("misplaced-directive errors = %d, want 2 (in-body, var doc): %v", counts["misplaced"], res.DirectiveErrors)
	}
	if counts["suppresses no allocation site"] != 1 {
		t.Errorf("dead-hatch errors = %d, want 1: %v", counts["suppresses no allocation site"], res.DirectiveErrors)
	}
	if counts["on a bodyless declaration proves nothing"] != 1 {
		t.Errorf("bodyless-root errors = %d, want 1: %v", counts["on a bodyless declaration proves nothing"], res.DirectiveErrors)
	}

	roots := rootsByName(t, res)
	if r := roots["e.ReasonlessHatch"]; r == nil || r.Proven {
		t.Error("e.ReasonlessHatch: a reasonless hatch must not suppress its site")
	}
	if r := roots["e.DeadHatch"]; r == nil || !r.Proven {
		t.Error("e.DeadHatch: the function itself is allocation-free and must prove")
	}
	if _, ok := roots["e.Bodyless"]; ok {
		t.Error("e.Bodyless: bodyless declarations must not become roots")
	}
}

// TestProofSkipsTestFiles pins which files the proof reads. The fixture's
// tf_test.go declares a //gpower:noalloc root that appends and a dead
// //gpower:allocs hatch; a load with tests must report neither. The same
// file under a production name must fail with an [append] finding.
func TestProofSkipsTestFiles(t *testing.T) {
	src := filepath.Join("testdata", "testfiles", "src")
	res := checkModule(t, src, "")
	if !res.Clean() || res.RootCount != 1 || res.Roots[0].Func != "tf.Sum" {
		t.Fatalf("with-tests load: roots %v, directive errors %v; want only tf.Sum, proven", res.Roots, res.DirectiveErrors)
	}

	dst := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dst, "tf"), 0o755); err != nil {
		t.Fatal(err)
	}
	for from, to := range map[string]string{"tf.go": "tf.go", "tf_test.go": "grow.go"} {
		data, err := os.ReadFile(filepath.Join(src, "tf", from))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, "tf", to), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res = checkModule(t, dst, "")
	var report strings.Builder
	if err := res.WriteText(&report, dst); err != nil {
		t.Fatal(err)
	}
	if res.Clean() || !strings.Contains(report.String(), "tf/grow.go:7:9: [append]") {
		t.Fatalf("production copy of grow must fail with an [append] finding:\n%s", report.String())
	}
}
