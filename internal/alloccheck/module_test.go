package alloccheck_test

import (
	"bytes"
	"testing"

	"gpupower/internal/lint/linttest"
)

// TestModuleHotPathsProven is the in-repo gate: every annotated hot-path
// root in the real module must prove allocation-free at HEAD, with no
// malformed or dead directives.
func TestModuleHotPathsProven(t *testing.T) {
	root, modPath := linttest.ModuleRoot(t)
	res := checkModule(t, root, modPath)
	if !res.Clean() {
		var b bytes.Buffer
		if err := res.WriteText(&b, root); err != nil {
			t.Fatalf("render report: %v", err)
		}
		t.Fatalf("module hot paths not proven:\n%s", b.String())
	}
	if res.RootCount < 10 {
		t.Fatalf("only %d annotated roots; the hot-path sweep requires at least 10", res.RootCount)
	}
	if res.FunctionsWalked < res.RootCount {
		t.Fatalf("walked %d functions for %d roots; the interprocedural walk went nowhere", res.FunctionsWalked, res.RootCount)
	}
}

// TestModuleOutputDeterministic runs two fully independent proofs over the
// module and requires byte-identical text and JSON reports.
func TestModuleOutputDeterministic(t *testing.T) {
	root, modPath := linttest.ModuleRoot(t)

	var text1, text2, json1, json2 bytes.Buffer
	res1 := checkModule(t, root, modPath)
	if err := res1.WriteText(&text1, root); err != nil {
		t.Fatal(err)
	}
	if err := res1.WriteJSON(&json1, root); err != nil {
		t.Fatal(err)
	}
	res2 := checkModule(t, root, modPath)
	if err := res2.WriteText(&text2, root); err != nil {
		t.Fatal(err)
	}
	if err := res2.WriteJSON(&json2, root); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(text1.Bytes(), text2.Bytes()) {
		t.Errorf("text reports differ across runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", text1.String(), text2.String())
	}
	if !bytes.Equal(json1.Bytes(), json2.Bytes()) {
		t.Errorf("JSON reports differ across runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", json1.String(), json2.String())
	}
}
