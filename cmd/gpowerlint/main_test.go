package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runIn runs the command from inside the fixture module testdata/<fixture>.
func runIn(t *testing.T, fixture string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("testdata", fixture)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRunClean(t *testing.T) {
	code, out, errOut := runIn(t, "clean", "./...")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if !strings.Contains(out, "alloccheck: 1 roots, 1 proven") {
		t.Errorf("missing the alloccheck summary line:\n%s", out)
	}
}

func TestRunUnprovenRootFails(t *testing.T) {
	code, out, errOut := runIn(t, "unproven", "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if !strings.HasPrefix(out, "sum/sum.go:5:1: root fixture/sum.Prefix: NOT proven") {
		t.Errorf("lint should be clean and the root reported unproven:\n%s", out)
	}
	if !strings.Contains(out, "[append]") {
		t.Errorf("missing the [append] finding:\n%s", out)
	}
}

func TestRunRejectsOtherPatterns(t *testing.T) {
	if code, _, errOut := runIn(t, "clean", "./sum"); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr: %s)", code, errOut)
	}
}

func TestRunJSONCarriesBothGates(t *testing.T) {
	code, out, errOut := runIn(t, "clean", "-json", "./...")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, errOut)
	}
	var doc struct {
		Diagnostics []json.RawMessage `json:"diagnostics"`
		Alloccheck  struct {
			RootCount   int `json:"root_count"`
			ProvenCount int `json:"proven_count"`
		} `json:"alloccheck"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("decode: %v\n%s", err, out)
	}
	if doc.Diagnostics == nil || len(doc.Diagnostics) != 0 || doc.Alloccheck.RootCount != 1 || doc.Alloccheck.ProvenCount != 1 {
		t.Errorf("unexpected JSON report:\n%s", out)
	}
}
