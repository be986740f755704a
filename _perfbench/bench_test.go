package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"gpupower/internal/fleet"
	"gpupower/internal/hw"
)

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

// TestSmoke runs every workload briefly, untraced and traced, and fails if
// a metric of BENCHMARK.json is missing from the result line or printed
// with another unit, or if any operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	dir := t.TempDir()
	gpowerd := filepath.Join(dir, "gpowerd")
	if out, err := exec.Command("go", "build", "-o", gpowerd, "gpupower/cmd/gpowerd").CombinedOutput(); err != nil {
		t.Fatalf("building gpowerd: %v\n%s", err, out)
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			run := workloads[name]
			cfg := &config{seed: 7, seconds: 1, trace: trace, gpowerd: gpowerd, out: dir}
			res, err := execute(context.Background(), run, cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var printed result
			if err := json.Unmarshal(line, &printed); err != nil {
				t.Fatal(err)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			for _, m := range want {
				got, ok := printed.Metrics[m.Name]
				if !ok {
					t.Errorf("%s (trace %v): metric %s not printed", name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s (trace %v): metric %s printed in %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(printed.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics printed, BENCHMARK.json declares %d", name, trace, len(printed.Metrics), len(want))
			}
			if !printed.Correct || printed.Failed != 0 || printed.Attempted < 1 {
				t.Errorf("%s (trace %v): %d of %d operations failed", name, trace, printed.Failed, printed.Attempted)
			}
		}
	}
}

// TestDeclaredMetricsMatchBenchmarkFile keeps the metric tables in the code
// and BENCHMARK.json in step.
func TestDeclaredMetricsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(e2e, e2eUnits) {
		t.Errorf("end-to-end metrics: BENCHMARK.json %v, code %v", e2e, e2eUnits)
	}
	if !reflect.DeepEqual(layer, layerUnits) {
		t.Errorf("per-layer metrics: BENCHMARK.json %v, code %v", layer, layerUnits)
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
}

// unfitted is a fleet with devices but no models: enough to generate
// requests.
func unfitted(t *testing.T, specs []fleet.Spec) *fittedFleet {
	t.Helper()
	f := &fittedFleet{specs: specs}
	for _, s := range specs {
		dev, err := hw.DeviceByName(s.Device)
		if err != nil {
			t.Fatal(err)
		}
		f.devices = append(f.devices, dev)
	}
	return f
}

// TestSeedChangesInputsNotFlags: a different seed must generate different
// request bodies, fleet dies and traffic, while gpowerd's flags and the
// served dies stay the same.
func TestSeedChangesInputsNotFlags(t *testing.T) {
	for _, w := range []*servingWorkload{predictBatch, governStream} {
		f := unfitted(t, servedSpecs(w.devices))
		a, b, a2 := w.newGen(1, f), w.newGen(2, f), w.newGen(1, f)
		differs := false
		for g := 0; g < 16; g++ {
			if !bytes.Equal(a(g).wire, a2(g).wire) {
				t.Errorf("%s: request %d differs between two generators of seed 1", w.name, g)
			}
			differs = differs || !bytes.Equal(a(g).wire, b(g).wire)
		}
		if !differs {
			t.Errorf("%s: seeds 1 and 2 generate the same requests", w.name)
		}
		// The flags are a function of the workload alone; check they name
		// the fixed die seed and no benchmark seed.
		args := w.gpowerdArgs()
		if !reflect.DeepEqual(args, w.gpowerdArgs()) || args[len(args)-1] != "42" {
			t.Errorf("%s: gpowerd flags %v", w.name, args)
		}
	}
	if reflect.DeepEqual(fleetSpecs(1), fleetSpecs(2)) {
		t.Error("fit-fleet: seeds 1 and 2 draw the same dies")
	}
	if !reflect.DeepEqual(fleetSpecs(3), fleetSpecs(3)) {
		t.Error("fit-fleet: one seed draws different dies")
	}
}

// TestSeedChangesTraffic: the simulated traffic follows the seed; the
// fleet's models do not.
func TestSeedChangesTraffic(t *testing.T) {
	ctx := context.Background()
	f, _, err := buildDatasets(ctx, servedSpecs([]string{"Tesla K40c"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.fit(ctx, nil); err != nil {
		t.Fatal(err)
	}
	hash := func(seed uint64) uint64 {
		sf, err := newSimFleet(ctx, f, seed, 10, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		o := newOutcome()
		ms, _, _, err := sf.check(ctx, o)
		if err != nil || o.failed != 0 {
			t.Fatalf("check: %v, %d failed", err, o.failed)
		}
		return ms[0].TraceHash
	}
	if hash(1) == hash(2) {
		t.Error("seeds 1 and 2 simulate the same traffic")
	}
	if hash(1) != hash(1) {
		t.Error("one seed simulates different traffic")
	}
}

// TestSelfTime pins the self-time rule: nested children are subtracted by
// the interval they cover (overlaps once), replayed children by duration.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) int64 { return ns }
	tr.spans = []span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(50)},
		{ID: 4, Parent: 1, Name: "r", Start: at(500), End: at(510), Replay: true},
	}
	self := tr.selfTimes(func(*span) bool { return true })
	if got := self["root"]; len(got) != 1 || got[0] != 100-40-10 {
		t.Errorf("root self time %v, want [50ns]", got)
	}
}
