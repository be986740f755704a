package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gpupower/internal/core"
	"gpupower/internal/registry"
	"gpupower/internal/stats"
)

// server is the HTTP endpoint a serving run drives: the gpowerd process,
// or serve.Server inside this process for the per-layer probe.
type server struct {
	addr string
	pid  int // gpowerd's process ID; 0 for the in-process server
	stop func() error
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startGpowerd starts gpowerd with args plus a free -listen address and
// returns once /healthz answers, with the time that took.
func startGpowerd(bin string, args []string) (*server, time.Duration, error) {
	if bin == "" {
		return nil, 0, fmt.Errorf("no gpowerd binary (-gpowerd)")
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-listen", addr)...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	stop := func() error {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-exited:
			return err
		case <-time.After(15 * time.Second):
			_ = cmd.Process.Kill()
			<-exited
			return fmt.Errorf("gpowerd did not drain within 15 s")
		}
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	for {
		select {
		case err := <-exited:
			return nil, 0, fmt.Errorf("gpowerd exited before it was ready: %v", err)
		default:
		}
		if resp, err := client.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return &server{addr: addr, pid: cmd.Process.Pid, stop: stop}, time.Since(start), nil
			}
		}
		if time.Since(start) > 120*time.Second {
			_ = stop()
			return nil, 0, fmt.Errorf("gpowerd not ready after 120 s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newRegistry wraps the in-process models in a registry named as gpowerd
// names its entries.
func newRegistry(f *fittedFleet) (*registry.Registry, []*registry.Entry, error) {
	reg := registry.New()
	var entries []*registry.Entry
	for i, m := range f.models {
		e, err := registry.NewEntry(f.specs[i].String(), f.devices[i], nil, nil, m, registry.FitMeta{Source: "simulator"})
		if err != nil {
			return nil, nil, err
		}
		if err := reg.Add(e); err != nil {
			return nil, nil, err
		}
		entries = append(entries, e)
	}
	return reg, entries, nil
}

// startInProcess serves handler on a loopback listener in this process.
func startInProcess(handler http.Handler) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(l) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		<-done
		return err
	}
	return &server{addr: l.Addr().String(), stop: stop}, nil
}

// scrapeSurfaceCounters reads the surface-cache hit and miss counters from
// the server's /metrics.
func scrapeSurfaceCounters(addr string) (hits, misses float64, err error) {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	found := 0
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		var dst *float64
		switch f[0] {
		case "gpowerd_surface_cache_hits_total":
			dst = &hits
		case "gpowerd_surface_cache_misses_total":
			dst = &misses
		default:
			continue
		}
		if *dst, err = strconv.ParseFloat(f[1], 64); err != nil {
			return 0, 0, err
		}
		found++
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("surface cache counters missing from /metrics")
	}
	return hits, misses, nil
}

// servingWorkload describes one serving workload.
type servingWorkload struct {
	name    string
	devices []string // gpowerd -devices, also the in-process reference fits
	// fixedRate is the open-loop rate p50_ms, p99_ms and
	// server_cpu_ms_per_req are measured at.
	fixedRate float64
	ladder    ladder
	// newGen returns the request generator for the fitted reference fleet.
	newGen func(seed uint64, f *fittedFleet) func(g int) *request
	// fresh marks workloads whose every request carries a new utilization
	// vector (surface-cache misses), which the replay must reproduce; each
	// of their responses is kept and checked once its phase is over. The
	// other workloads send few distinct bodies: the first response to each
	// is checked in full and later responses are compared byte for byte in
	// the send loop, with no JSON decoding there.
	fresh bool
}

// gpowerdArgs are gpowerd's flags for the workload, less -listen. They
// never depend on the benchmark seed.
func (w *servingWorkload) gpowerdArgs() []string {
	return []string{"-devices", strings.Join(w.devices, ","), "-seed", strconv.Itoa(serverSeed)}
}

// liveRun is the state of a serving run against one server.
type liveRun struct {
	w     *servingWorkload
	f     *fittedFleet
	srv   *server
	conns []*httpConn
	gen   func(g int) *request
	next  int // next global request index
	o     *outcome
	// refs holds, for workloads that are not fresh, the verified response
	// to each distinct request.
	refs map[*request][]byte
	// hits and misses count surface-cache lookups during the sends, for
	// an in-process server, whose counters the checks in this process
	// would otherwise inflate.
	hits, misses uint64
	// live records the traced requests with the ID of their round-trip
	// span, for the replay.
	live []liveRequest
}

type liveRequest struct {
	g  int
	q  *request
	rt int64 // http.roundtrip span
}

func newLiveRun(w *servingWorkload, f *fittedFleet, srv *server, seed uint64, o *outcome) *liveRun {
	lr := &liveRun{w: w, f: f, srv: srv, gen: w.newGen(seed, f), o: o, refs: map[*request][]byte{}}
	for i := 0; i < maxConns; i++ {
		lr.conns = append(lr.conns, newConn(srv.addr))
	}
	return lr
}

func (lr *liveRun) close() {
	for _, c := range lr.conns {
		c.close()
	}
}

// warmUp sends requests before the measured phases and checks each answer
// in full. For a workload that is not fresh these are its distinct
// requests, and their answers become the references later responses are
// compared with byte for byte.
func (lr *liveRun) warmUp(ctx context.Context, n int) {
	c := lr.conns[0]
	for i := 0; i < n; i++ {
		q := lr.gen(lr.next)
		lr.next++
		lr.o.attempted++
		status, body, err := c.roundTrip(q.wire)
		if err == nil {
			err = q.check(ctx, lr.f, status, body)
		}
		if err != nil {
			lr.o.fail(1, "warm-up request: %v", err)
			continue
		}
		if !lr.w.fresh {
			if _, ok := lr.refs[q]; !ok {
				lr.refs[q] = append([]byte(nil), body...)
			}
		}
	}
}

// run sends one open-loop phase of dur at rate, counting attempts and
// failures. stopAfter bounds how long past dur the phase may keep
// sending; requests not sent by then are dropped (and the phase fails
// its ladder probe). Responses that were not compared with a reference
// in the send loop are checked once the phase is over.
func (lr *liveRun) run(ctx context.Context, rate float64, dur, stopAfter time.Duration, tr *tracer) *phase {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	g0 := lr.next
	lr.next += n
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = lr.gen(g0 + i)
	}
	var kept [][]byte
	var statuses []int
	if lr.w.fresh {
		kept, statuses = make([][]byte, n), make([]int, n)
	}
	onResp := func(i, status int, body []byte) error {
		q := reqs[i]
		if !lr.w.fresh {
			if status != 200 {
				return fmt.Errorf("HTTP %d", status)
			}
			if ref, ok := lr.refs[q]; !ok || !bytes.Equal(ref, body) {
				return fmt.Errorf("response differs from the verified one")
			}
			return nil
		}
		kept[i], statuses[i] = append([]byte(nil), body...), status
		return nil
	}
	// Collect now, so the generator's own garbage (requests made above,
	// answers checked after the last phase) is not marked while this
	// phase sends: a mark phase takes one of the generator's two Ps.
	runtime.GC()
	h0, m0 := core.Surfaces.Stats()
	p := runOpenLoop(lr.conns, rate, n, dur+stopAfter, func(i int) []byte { return reqs[i].wire }, onResp)
	h1, m1 := core.Surfaces.Stats()
	lr.hits, lr.misses = lr.hits+h1-h0, lr.misses+m1-m0
	for i := range p.samples {
		s := &p.samples[i]
		if !s.sentOK {
			continue
		}
		lr.o.attempted++
		if s.err != nil {
			lr.o.fail(1, "%s request %d: %v", kindPaths[reqs[i].kind], g0+i, s.err)
			continue
		}
		if kept != nil {
			if err := reqs[i].check(ctx, lr.f, statuses[i], kept[i]); err != nil {
				lr.o.fail(1, "request %d: %v", g0+i, err)
			}
		} else if s.status != 200 {
			lr.o.fail(1, "%s request %d: HTTP %d", kindPaths[reqs[i].kind], g0+i, s.status)
		}
		if tr != nil {
			root := tr.add(int64(g0+i), 0, "loadgen.request", p.start.Add(s.due), p.start.Add(s.done), false)
			tr.add(int64(g0+i), root, "loadgen.lag", p.start.Add(s.due), p.start.Add(s.sent), false)
			rt := tr.add(int64(g0+i), root, "http.roundtrip", p.start.Add(s.sent), p.start.Add(s.done), false)
			if len(lr.live) < replayLimit {
				lr.live = append(lr.live, liveRequest{g: g0 + i, q: reqs[i], rt: rt})
			}
		}
	}
	return p
}

var inf = math.Inf(1)

// latencies returns a phase's latencies from due time in ms; failed
// requests count as infinitely late, so they miss any limit.
func latencies(p *phase) []float64 {
	var out []float64
	for i := range p.samples {
		s := &p.samples[i]
		if !s.sentOK {
			continue
		}
		if s.err != nil || s.status != 200 {
			out = append(out, inf)
			continue
		}
		out = append(out, float64(s.latency())/float64(time.Millisecond))
	}
	return out
}

// fixedWindows is how many windows the fixed-rate phase is cut into.
// Each latency figure is the median over the windows (CPU is summed over
// them: /proc counts it in 10 ms ticks), and the
// untraced run interleaves the windows with the ladder probes, so a stall
// of the shared machine moves a window or two, not the result.
const fixedWindows = 10

// windowStats are the medians over a fixed-rate phase's windows.
type windowStats struct {
	n                  int // requests sent over all windows
	p50, p99, lagP99   float64
	serverCPU, selfCPU float64 // ms per completed request
}

// fixedPhase runs the fixed-rate phase one window at a time.
type fixedPhase struct {
	lr     *liveRun
	rate   float64
	window time.Duration
	tr     *tracer
	left   int

	n, ok          int
	srvCPU, ownCPU time.Duration
	p50, p99, lag  []float64
}

func (lr *liveRun) fixedPhase(rate float64, d time.Duration, tr *tracer) *fixedPhase {
	return &fixedPhase{lr: lr, rate: rate, window: d / fixedWindows, tr: tr, left: fixedWindows}
}

// next runs the next window, if any is left.
func (fp *fixedPhase) next(ctx context.Context) error {
	if fp.left == 0 {
		return nil
	}
	fp.left--
	var cpu0 time.Duration
	pid := fp.lr.srv.pid
	if pid != 0 {
		c, err := procCPU(pid)
		if err != nil {
			return err
		}
		cpu0 = c
	}
	self0 := selfCPU()
	p := fp.lr.run(ctx, fp.rate, fp.window, 5*time.Second, fp.tr)
	self := selfCPU() - self0
	st := p.stats()
	lat := latencies(p)
	fp.n += len(lat)
	fp.p50 = append(fp.p50, percentile(lat, 50))
	fp.p99 = append(fp.p99, percentile(lat, 99))
	fp.lag = append(fp.lag, percentile(st.lagMs, 99))
	fp.ok += st.ok
	fp.ownCPU += self
	if pid != 0 {
		c, err := procCPU(pid)
		if err != nil {
			return err
		}
		fp.srvCPU += c - cpu0
	}
	return nil
}

// finish runs the windows left and returns the medians.
func (fp *fixedPhase) finish(ctx context.Context) (*windowStats, error) {
	for fp.left > 0 {
		if err := fp.next(ctx); err != nil {
			return nil, err
		}
	}
	if fp.ok == 0 {
		return nil, fmt.Errorf("no request of the fixed-rate phase succeeded")
	}
	perReq := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(fp.ok) }
	return &windowStats{
		n: fp.n, p50: percentile(fp.p50, 50), p99: percentile(fp.p99, 50), lagP99: percentile(fp.lag, 50),
		serverCPU: perReq(fp.srvCPU), selfCPU: perReq(fp.ownCPU),
	}, nil
}

// runServing runs a serving workload; both share it.
func runServing(ctx context.Context, cfg *config, w *servingWorkload) (*outcome, error) {
	o := newOutcome()
	f, err := prepareServed(ctx, servedSpecs(w.devices), setupReps, o)
	if err != nil {
		return nil, err
	}

	// Set-up: gpowerd start until /healthz answers, setupReps times; the
	// last instance serves the run.
	var setups []float64
	var srv *server
	for r := 0; r < setupReps; r++ {
		s, d, err := startGpowerd(cfg.gpowerd, w.gpowerdArgs())
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if r < setupReps-1 {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stopping gpowerd: %w", err)
			}
			continue
		}
		srv = s
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = srv.stop()
		}
	}()
	o.e2e.set("setup_s", "s", stats.Median(setups))

	lr := newLiveRun(w, f, srv, cfg.seed, o)
	defer lr.close()
	lr.warmUp(ctx, 16)
	lr.run(ctx, w.fixedRate, 300*time.Millisecond, time.Second, nil)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	h0, m0, err := scrapeSurfaceCounters(srv.addr)
	if err != nil {
		return nil, err
	}
	fixed := cfg.span(0.4)
	fp := lr.fixedPhase(w.fixedRate, fixed, nil)
	var windowErr error
	// window runs p's next window, keeping the first error.
	window := func(p *fixedPhase) {
		if err := p.next(ctx); err != nil && windowErr == nil {
			windowErr = err
		}
	}
	var traced *fixedPhase
	if cfg.trace {
		// Traced windows alternate with the untraced ones, so both see the
		// same machine: the difference is the tracing overhead, and the
		// traced requests are the ones the replay times layer by layer.
		traced = lr.fixedPhase(w.fixedRate, fixed, tr)
		for fp.left > 0 {
			window(fp)
			window(traced)
		}
	} else {
		// Capacity: binary search over the fixed rate ladder, with the
		// fixed-rate windows run between the probes.
		probe := cfg.span(0.6) / time.Duration(w.ladder.probes()+2)
		best := w.ladder.search(func(rate float64) *phase {
			window(fp)
			return lr.run(ctx, rate, probe, w.ladder.limit, nil)
		})
		o.e2e.set("max_rps", "1/s", best)
	}
	ws, err := fp.finish(ctx)
	if err == nil {
		err = windowErr
	}
	if err != nil {
		return nil, err
	}
	h1, m1, err := scrapeSurfaceCounters(srv.addr)
	if err != nil {
		return nil, err
	}
	o.e2e.set("p50_ms", "ms", ws.p50)
	o.layer.set("loadgen.p99_ms", "ms", ws.p99)
	o.e2e.set("server_cpu_ms_per_req", "ms", ws.serverCPU)
	o.layer.set("loadgen.cpu_ms_per_req", "ms", ws.selfCPU)
	o.layer.set("loadgen.lag_p99_ms", "ms", ws.lagP99)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d requests at %.0f/s, p50 %.3f ms, p99 %.3f ms\n",
		w.name, ws.n, w.fixedRate, ws.p50, ws.p99)
	if h1+m1-h0-m0 > 0 {
		o.layer.set("core.surface_hit_ratio", "ratio", (h1-h0)/(h1+m1-h0-m0))
	}
	if traced != nil {
		wt, err := traced.finish(ctx)
		if err != nil {
			return nil, err
		}
		o.layer.set("trace.overhead_ms", "ms", wt.p50-ws.p50)
	}

	rss, err := peakRSSMB(srv.pid)
	if err != nil {
		return nil, err
	}
	o.e2e.set("peak_rss_mb", "MB", rss)
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("gpowerd did not exit cleanly: %w", err)
	}
	// Serving has no simulation of its own: a simulation of the served
	// models, once gpowerd has exited.
	_, events, err := simulatedRates(ctx, cfg, f, o)
	if err != nil {
		return nil, err
	}
	o.e2e.set("sim_events_per_s", "1/s", events)

	if cfg.trace {
		if err := measureLayers(ctx, cfg, w.name, f, lr, tr, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// predictBatch: large full-ladder batches rotating through a few seeded
// utilization vectors, so gpowerd's surface cache stays hot and the
// handler's time goes to the JSON codec.
var predictBatch = &servingWorkload{
	name:      "predict-batch",
	devices:   []string{"GTX Titan X"},
	fixedRate: 400,
	ladder:    ladder{base: 100, ratio: 1.04, rungs: 127, limit: 50 * time.Millisecond},
	newGen:    batchGen,
}

// governStream: small requests round-robin over all three catalog
// devices, mostly /v1/govern, each with a fresh utilization vector, so
// the surface cache misses, inserts and evicts.
var governStream = &servingWorkload{
	name:      "govern-stream",
	devices:   []string{"Titan Xp", "GTX Titan X", "Tesla K40c"},
	fixedRate: 2000,
	ladder:    ladder{base: 500, ratio: 1.04, rungs: 127, limit: 10 * time.Millisecond},
	newGen: func(seed uint64, f *fittedFleet) func(g int) *request {
		return func(g int) *request { return mixedRequest(seed, g, f) }
	},
	fresh: true,
}

func runPredictBatch(ctx context.Context, cfg *config) (*outcome, error) {
	return runServing(ctx, cfg, predictBatch)
}

func runGovernStream(ctx context.Context, cfg *config) (*outcome, error) {
	return runServing(ctx, cfg, governStream)
}

// The predict-batch shape: bodies of batchItems items, each over the full
// 64-point ladder, drawn from batchVectors seeded vectors.
const (
	batchItems   = 64
	batchVectors = 16
	batchBodies  = 8
)

func batchGen(seed uint64, f *fittedFleet) func(g int) *request {
	r := newRNG(seed, 0)
	vecs := make([]core.Utilization, batchVectors)
	for i := range vecs {
		vecs[i] = r.utilization()
	}
	bodies := make([]*request, batchBodies)
	for b := range bodies {
		q := &request{kind: kindPredict}
		for j := 0; j < batchItems; j++ {
			q.items = append(q.items, vecs[r.intn(batchVectors)])
		}
		q.encode(f.specs[0].String())
		bodies[b] = q
	}
	return func(g int) *request { return bodies[g%batchBodies] }
}
