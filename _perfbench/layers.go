package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"gpupower/internal/core"
	"gpupower/internal/fleet"
	"gpupower/internal/governor"
	"gpupower/internal/hw"
	"gpupower/internal/parallel"
	"gpupower/internal/registry"
	"gpupower/internal/serve"
	"gpupower/internal/stats"
)

// layerUnits names every per-layer metric a traced run prints, with its
// unit; they match BENCHMARK.json. README.md maps each to the end-to-end
// metric it should move.
var layerUnits = map[string]string{
	"loadgen.p99_ms":                  "ms",
	"loadgen.lag_p99_ms":              "ms",
	"loadgen.cpu_ms_per_req":          "ms",
	"http.overhead_us":                "us",
	"serve.predict_us":                "us",
	"serve.govern_us":                 "us",
	"serve.breakdown_us":              "us",
	"serve.self_us":                   "us",
	"serve.allocs_per_req":            "count",
	"serve.bytes_per_req":             "B",
	"registry.snapshot_ns":            "ns",
	"core.surface_hit_ratio":          "ratio",
	"core.surface_get_hit_ns":         "ns",
	"core.surface_get_miss_us":        "us",
	"core.predictall_ns_per_point":    "ns",
	"governor.decide_us":              "us",
	"core.build_dataset_s":            "s",
	"core.estimate.first_iter_ms":     "ms",
	"core.estimate.iter_ms":           "ms",
	"core.estimate.iterations":        "count",
	"core.estimate.converged":         "count",
	"fleet.parallel_eff":              "ratio",
	"cluster.setup_s":                 "s",
	"cluster.ns_per_event.model-dvfs": "ns",
	"cluster.ns_per_event.oracle":     "ns",
	"cluster.shard_eff":               "ratio",
	"cluster.allocs_per_run":          "count",
	"cluster.events":                  "count",
	"cluster.jobs":                    "count",
	"trace.overhead_ms":               "ms",
}

// replayLimit bounds how many live requests the replay re-runs in process.
const replayLimit = 1500

// measureLayers fills the per-layer metrics of a traced run. lr is the
// traced live run of a serving workload; nil runs the probe instead: the
// same models served by serve.Server in this process and driven by the
// same open-loop generator with govern-stream-style requests, so every
// workload reports every layer. The spans are written out at the end.
func measureLayers(ctx context.Context, cfg *config, workload string, f *fittedFleet, lr *liveRun, tr *tracer, o *outcome) error {
	reg, entries, err := newRegistry(f)
	if err != nil {
		return err
	}
	srv := serve.New(reg, nil)
	fresh := true
	if lr != nil {
		fresh = lr.w.fresh
	} else if lr, err = probe(ctx, cfg, f, srv, tr, o); err != nil {
		return err
	}

	rp := &replayer{srv: srv, entries: entries, tr: tr, rec: newRecorder()}
	live := lr.live
	if !fresh {
		// Fill the in-process surface cache the way the live server's was.
		for _, l := range live {
			rp.handle(ctx, l.q)
		}
	}
	for _, l := range live {
		rp.replay(ctx, l.q, int64(l.g), l.rt, fresh)
	}
	// Endpoints the workload never calls are timed on extra requests of
	// the probe mix, so their handler metrics exist on every workload.
	var seen [numKinds]int
	for _, l := range live {
		seen[l.q.kind]++
	}
	for g := 0; g < 4000; g++ {
		q := mixedRequest(cfg.seed^0x5eed, g, f)
		if seen[q.kind] < 200 {
			seen[q.kind]++
			rp.replay(ctx, q, -int64(g)-1, 0, true)
		}
	}

	// Self times of the live requests only: their handler spans hang off
	// a live round trip.
	self := tr.selfTimes(func(s *span) bool { return s.Parent != 0 })
	setMedian(o, "http.overhead_us", "us", us(self["http.roundtrip"]))
	var handlerSelf []time.Duration
	for k, name := range []string{"serve.predict_us", "serve.govern_us", "serve.breakdown_us"} {
		setMedian(o, name, "us", us(tr.durations(handlerSpan[k])))
		handlerSelf = append(handlerSelf, self[handlerSpan[k]]...)
	}
	setMedian(o, "serve.self_us", "us", us(handlerSelf))
	setMedian(o, "governor.decide_us", "us", us(tr.durations("governor.Decide")))

	allocs, allocBytes := rp.allocs(ctx, live, fresh)
	o.layer.set("serve.allocs_per_req", "count", allocs)
	o.layer.set("serve.bytes_per_req", "B", allocBytes)
	o.layer.set("registry.snapshot_ns", "ns", snapshotNs(entries[0]))
	var vecs []core.Utilization
	for _, l := range live {
		vecs = append(vecs, l.q.items...)
	}
	surfaceLayers(ctx, f, vecs, o)

	if err := fitLayers(ctx, f, tr, o); err != nil {
		return err
	}
	if _, ok := o.layer["cluster.events"]; !ok {
		if err := simLayers(ctx, cfg, f, tr, o); err != nil {
			return err
		}
	}
	path, err := tr.write(cfg.out, workload, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}

func setMedian(o *outcome, name, unit string, v []float64) {
	if len(v) > 0 {
		o.layer.set(name, unit, stats.Median(v))
	}
}

var handlerSpan = [numKinds]string{"serve.predict", "serve.govern", "serve.breakdown"}

// probe drives the in-process server with the govern-stream mix at a low
// fixed rate for a fifth of the run, recording the live spans the replay
// attaches to, and sets the generator and surface-cache metrics.
func probe(ctx context.Context, cfg *config, f *fittedFleet, srv *serve.Server, tr *tracer, o *outcome) (*liveRun, error) {
	s, err := startInProcess(srv)
	if err != nil {
		return nil, err
	}
	w := &servingWorkload{name: "probe", newGen: func(seed uint64, f *fittedFleet) func(int) *request {
		return func(g int) *request { return mixedRequest(seed, g, f) }
	}, fresh: true}
	lr := newLiveRun(w, f, s, cfg.seed, o)
	ws, err := lr.fixedPhase(300, cfg.span(0.2), tr).finish(ctx)
	lr.close()
	if err != nil {
		return nil, err
	}
	if err := s.stop(); err != nil {
		return nil, err
	}
	// In process, this CPU time includes the server's.
	o.layer.set("loadgen.cpu_ms_per_req", "ms", ws.selfCPU)
	o.layer.set("loadgen.p99_ms", "ms", ws.p99)
	o.layer.set("loadgen.lag_p99_ms", "ms", ws.lagP99)
	if d := float64(lr.hits + lr.misses); d > 0 {
		o.layer.set("core.surface_hit_ratio", "ratio", float64(lr.hits)/d)
	}
	return lr, nil
}

// recorder is a reusable http.ResponseWriter for the in-process replay.
type recorder struct {
	h    http.Header
	code int
	buf  []byte
}

func newRecorder() *recorder { return &recorder{h: http.Header{}} }

func (r *recorder) Header() http.Header         { return r.h }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(b []byte) (int, error) { r.buf = append(r.buf, b...); return len(b), nil }

func (r *recorder) reset() {
	for k := range r.h {
		delete(r.h, k)
	}
	r.code, r.buf = http.StatusOK, r.buf[:0]
}

// replayer re-runs live requests in process: first the registry, core and
// governor calls the handler makes, on identical inputs, then the handler
// itself through serve.Server.ServeHTTP.
type replayer struct {
	srv     *serve.Server
	entries []*registry.Entry
	tr      *tracer
	rec     *recorder
	dst     []float64
}

func httpRequest(ctx context.Context, q *request) *http.Request {
	r, _ := http.NewRequestWithContext(ctx, http.MethodPost, kindPaths[q.kind], bytes.NewReader(q.body))
	return r
}

// handle serves q in process, untimed.
func (rp *replayer) handle(ctx context.Context, q *request) {
	rp.rec.reset()
	rp.srv.ServeHTTP(rp.rec, httpRequest(ctx, q))
}

// replay times q's layer calls and then its handler, as children of the
// live round-trip span rt (0 when q was never sent). fresh says q's
// vectors missed the surface cache when it was served.
func (rp *replayer) replay(ctx context.Context, q *request, req, rt int64, fresh bool) {
	tr := rp.tr
	e := rp.entries[q.entry]
	dev := e.Device()
	hid := tr.reserve()
	timed := func(name string, fn func()) {
		start := time.Now()
		fn()
		tr.record(tr.reserve(), req, hid, name, start, time.Now(), true)
	}
	var m *core.Model
	timed("registry.Snapshot", func() { m, _ = e.Snapshot() })
	u := q.items[0]
	switch q.kind {
	case kindPredict:
		if q.configs == nil {
			for _, it := range q.items {
				timed("core.Surfaces.Get", func() { _, _ = core.Surfaces.Get(ctx, m, dev, m.Ref, it) })
			}
		} else {
			if cap(rp.dst) < len(q.configs) {
				rp.dst = make([]float64, len(q.configs))
			}
			timed("core.Model.PredictAll", func() { _ = m.PredictAll(u, q.configs, rp.dst[:len(q.configs)]) })
		}
	case kindGovern:
		var cfg hw.Config
		timed("governor.Decide", func() { cfg, _ = governor.Decide(ctx, m, dev, q.policy, 0, u) })
		timed("core.Model.Predict", func() { _, _ = m.Predict(u, cfg) })
		timed("core.EstimateRelativeTime", func() { _ = core.EstimateRelativeTime(u, m.Ref, cfg) })
	case kindBreakdown:
		cfg := m.Ref
		if q.cfg != nil {
			cfg = *q.cfg
		}
		timed("core.Model.Decompose", func() { _, _ = m.Decompose(u, cfg) })
	}
	if fresh {
		// The served request missed the surface cache; make the handler
		// miss too rather than hit the surface the replay above just cached.
		m.InvalidateSurfaces()
	}
	r := httpRequest(ctx, q)
	rp.rec.reset()
	start := time.Now()
	rp.srv.ServeHTTP(rp.rec, r)
	end := time.Now()
	tr.record(hid, req, rt, handlerSpan[q.kind], start, end, true)
}

// allocs returns the heap allocations and bytes per request of the handler
// alone over the replayed live requests.
func (rp *replayer) allocs(ctx context.Context, live []liveRequest, fresh bool) (float64, float64) {
	reqs := make([]*http.Request, len(live))
	for i, l := range live {
		reqs[i] = httpRequest(ctx, l.q)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, l := range live {
		if fresh {
			rp.entries[l.q.entry].Model().InvalidateSurfaces()
		}
		rp.rec.reset()
		rp.srv.ServeHTTP(rp.rec, reqs[i])
	}
	runtime.ReadMemStats(&after)
	n := float64(len(live))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// snapshotNs times Entry.Snapshot in a tight loop.
func snapshotNs(e *registry.Entry) float64 {
	const n = 200000
	var gen uint64
	start := time.Now()
	for i := 0; i < n; i++ {
		_, meta := e.Snapshot()
		gen += meta.Generation
	}
	d := time.Since(start)
	if gen == 0 {
		return 0
	}
	return float64(d) / n
}

// surfaceLayers times SurfaceCache.Get on a miss and on a hit, and
// PredictAll over the full ladder, on the workload's own utilization
// vectors against its first member's model.
func surfaceLayers(ctx context.Context, f *fittedFleet, vecs []core.Utilization, o *outcome) {
	if len(vecs) > 500 {
		vecs = vecs[:500]
	}
	m, dev := f.models[0], f.devices[0]
	ladder := dev.Ladder()
	dst := make([]float64, len(ladder))
	var hit, miss, all []float64
	for _, u := range vecs {
		m.InvalidateSurfaces()
		t0 := time.Now()
		_, _ = core.Surfaces.Get(ctx, m, dev, m.Ref, u)
		t1 := time.Now()
		_, _ = core.Surfaces.Get(ctx, m, dev, m.Ref, u)
		t2 := time.Now()
		_ = m.PredictAll(u, ladder, dst)
		t3 := time.Now()
		miss = append(miss, float64(t1.Sub(t0))/float64(time.Microsecond))
		hit = append(hit, float64(t2.Sub(t1)))
		all = append(all, float64(t3.Sub(t2))/float64(len(ladder)))
	}
	setMedian(o, "core.surface_get_miss_us", "us", miss)
	setMedian(o, "core.surface_get_hit_ns", "ns", hit)
	setMedian(o, "core.predictall_ns_per_point", "ns", all)
}

// fitLayers times each member's fit alone and single-threaded, with the
// estimator's Trace callback stamping every iteration: the first
// iteration (step 1 plus the first step-2/step-3 pass), the later
// iterations, and fleet.parallel_eff, the members' summed alone-times over
// workers × the concurrent fleet fit's wall time. Each refit must
// reproduce the fleet fit's model bit for bit.
func fitLayers(ctx context.Context, f *fittedFleet, tr *tracer, o *outcome) error {
	o.layer.set("core.build_dataset_s", "s", f.buildWall.Seconds())
	workers := parallel.Workers()
	prev := parallel.SetSequential(true)
	defer parallel.SetSequential(prev)
	var first, iters []float64
	var total time.Duration
	var iterations, converged int
	for i, d := range f.datasets {
		opts := core.DefaultEstimatorOptions()
		var stamps []time.Time
		opts.Trace = func(int, float64, float64, float64) { stamps = append(stamps, time.Now()) }
		start := time.Now()
		models, err := fleet.FitDatasets(ctx, []*core.Dataset{d}, opts)
		end := time.Now()
		if err != nil {
			return err
		}
		if !sameModel(models[0], f.models[i]) {
			o.fail(1, "single-threaded refit of %s differs from the fleet fit", f.specs[i])
		}
		fit := tr.add(int64(i), 0, "core.Estimate", start, end, false)
		last := start
		for k, s := range stamps {
			tr.add(int64(i), fit, "core.estimate.iter", last, s, false)
			ms := float64(s.Sub(last)) / float64(time.Millisecond)
			if k == 0 {
				first = append(first, ms)
			} else {
				iters = append(iters, ms)
			}
			last = s
		}
		total += end.Sub(start)
		iterations += models[0].Iterations
		if models[0].Converged {
			converged++
		}
	}
	setMedian(o, "core.estimate.first_iter_ms", "ms", first)
	setMedian(o, "core.estimate.iter_ms", "ms", iters)
	o.layer.set("core.estimate.iterations", "count", float64(iterations))
	o.layer.set("core.estimate.converged", "count", float64(converged))
	if fitS, ok := o.e2e["fit_s"]; ok && fitS.Value > 0 {
		o.layer.set("fleet.parallel_eff", "ratio", total.Seconds()/(float64(workers)*fitS.Value))
	}
	return nil
}
