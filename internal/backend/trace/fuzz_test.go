package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// committedTrace is the golden K40c fit trace at the repository root.
const committedTrace = "../../../testdata/k40c-fit.trace.gz"

// FuzzTraceLoad feeds arbitrary bytes to the trace reader, both as a plain
// ".json" file and as a ".gz" file, then builds a replayer from whatever
// loads. Loading must never panic, and must end either in an error or in a
// trace that passes Validate and replays every event it holds.
//
//	go test -run '^$' -fuzz FuzzTraceLoad -fuzztime 60s ./internal/backend/trace
func FuzzTraceLoad(f *testing.F) {
	gz, err := os.ReadFile(committedTrace)
	if err != nil {
		f.Fatal(err)
	}
	tr, err := Load(committedTrace)
	if err != nil {
		f.Fatal(err)
	}
	// The committed trace as recorded, a plain-JSON prefix of it (the
	// whole 0.7 MB document makes every mutation slow to minimize), the
	// recording cut mid-stream, and a version this build does not read.
	tr.Events = tr.Events[:8]
	plain, err := json.Marshal(tr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gz)
	f.Add(plain)
	f.Add(gz[:len(gz)/2])
	f.Add([]byte(`{"version": 2, "device": "Tesla K40c", "events": []}`))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range []string{"in.json", "in.json.gz"} {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			tr, err := Load(path)
			if err != nil {
				continue
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s: Load accepted a trace that fails Validate: %v", name, err)
			}
			rep, err := NewReplayer(tr)
			if err != nil {
				t.Fatalf("%s: NewReplayer rejected a loaded trace: %v", name, err)
			}
			want := 0
			for _, e := range tr.Events {
				if e.Op != OpSetClocks {
					want++
				}
			}
			if got := rep.Remaining(); got != want {
				t.Fatalf("%s: replayer holds %d measurements, trace has %d", name, got, want)
			}
		}
	})
}
