// Package serve is gpowerd's HTTP layer: batch power prediction, DVFS
// governing, power breakdowns and device listings over the model
// registry, plus Prometheus metrics — stdlib only.
//
// The hot path is POST /v1/predict. A request names a registry entry and
// carries a batch of utilization vectors; each item is evaluated either
// over the full frequency ladder (through the process-wide prediction
// surface cache) or at an explicit configuration list (Model.PredictAll).
// The handler snapshots the entry's model once per request, so a batch is
// atomic with respect to a concurrent re-fit swap: its predictions come
// entirely from the old model or entirely from the new one, never a mix.
// Neither half of the wire codec goes through encoding/json: requests are
// scanned straight into pooled storage (decode.go), responses are encoded
// into pooled buffers, and a full-ladder answer copies text its surface
// formatted once.
//
// Request bodies are size-bounded (Options.MaxRequestBytes) and handlers
// honor request-context cancellation, so a draining server never wedges
// on a slow client.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gpupower/internal/backend"
	"gpupower/internal/core"
	"gpupower/internal/governor"
	"gpupower/internal/hw"
	"gpupower/internal/metrics"
	"gpupower/internal/registry"
)

// DefaultMaxRequestBytes bounds request bodies when Options doesn't.
const DefaultMaxRequestBytes = 8 << 20

// Options tunes the server.
type Options struct {
	// MaxRequestBytes caps request body size; 0 means DefaultMaxRequestBytes.
	MaxRequestBytes int64
}

// Server serves a model registry over HTTP. It implements http.Handler.
type Server struct {
	reg  *registry.Registry
	mux  *http.ServeMux
	opts Options

	metrics     *metrics.Registry
	requests    *metrics.CounterVec   // {path, code}
	latency     *metrics.HistogramVec // {path}
	predictions *metrics.Counter
	breakdown   *metrics.GaugeVec // {device, component} last predicted W
	opCore      *metrics.GaugeVec // {device} last governed core MHz
	opMem       *metrics.GaugeVec // {device} last governed mem MHz
}

// New builds a server over reg. The registry's entries may keep being
// re-fitted (Entry.Swap) while the server runs.
func New(reg *registry.Registry, opts *Options) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux()}
	if opts != nil {
		s.opts = *opts
	}
	if s.opts.MaxRequestBytes <= 0 {
		s.opts.MaxRequestBytes = DefaultMaxRequestBytes
	}
	s.initMetrics()
	s.mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("/v1/devices", s.instrument("/v1/devices", s.handleDevices))
	s.mux.HandleFunc("/v1/predict", s.instrument("/v1/predict", s.handlePredict))
	s.mux.HandleFunc("/v1/govern", s.instrument("/v1/govern", s.handleGovern))
	s.mux.HandleFunc("/v1/breakdown", s.instrument("/v1/breakdown", s.handleBreakdown))
	s.mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	return s
}

// ServeHTTP dispatches to the server's mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics exposes the server's metrics registry (for tests and for
// embedding extra collectors before serving).
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

func (s *Server) initMetrics() {
	m := metrics.NewRegistry()
	s.metrics = m
	s.requests = m.NewCounterVec("gpowerd_requests_total",
		"HTTP requests served, by path and status code.", "path", "code")
	s.latency = m.NewHistogramVec("gpowerd_request_duration_seconds",
		"HTTP request latency.",
		[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5},
		"path")
	s.predictions = m.NewCounterVec("gpowerd_predictions_total",
		"Individual power predictions served by /v1/predict.").With()
	s.breakdown = m.NewGaugeVec("gpowerd_predicted_power_watts",
		"Last predicted power breakdown per device, by component (plus the constant share).",
		"device", "component")
	s.opCore = m.NewGaugeVec("gpowerd_operating_point_core_mhz",
		"Core frequency of the last governed operating point, per device.", "device")
	s.opMem = m.NewGaugeVec("gpowerd_operating_point_mem_mhz",
		"Memory frequency of the last governed operating point, per device.", "device")
	m.NewCounterFunc("gpowerd_surface_cache_hits_total",
		"Prediction-surface cache hits (process-wide).", func() float64 {
			h, _ := core.Surfaces.Stats()
			return float64(h)
		})
	m.NewCounterFunc("gpowerd_surface_cache_misses_total",
		"Prediction-surface cache misses (process-wide).", func() float64 {
			_, miss := core.Surfaces.Stats()
			return float64(miss)
		})
	m.NewGaugeFunc("gpowerd_surface_cache_entries",
		"Prediction surfaces currently cached (process-wide).", func() float64 {
			return float64(core.Surfaces.Len())
		})
	m.NewGaugeFunc("gpowerd_devices",
		"Devices in the model registry.", func() float64 {
			return float64(s.reg.Len())
		})
	gen := m.NewGaugeFuncVec("gpowerd_model_generation",
		"Surface-cache generation of the entry's current model; changes on every re-fit swap.", "device")
	conv := m.NewGaugeFuncVec("gpowerd_model_converged",
		"Whether the entry's current fit converged (1) or hit the iteration cap (0).", "device")
	for _, e := range s.reg.Entries() {
		e := e
		gen.With(func() float64 {
			_, meta := e.Snapshot()
			return float64(meta.Generation)
		}, e.Name())
		conv.With(func() float64 {
			_, meta := e.Snapshot()
			if meta.Converged {
				return 1
			}
			return 0
		}, e.Name())
	}
}

// statusRecorder captures the response code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the request counter and latency
// histogram. The children are resolved once here, not per request.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.latency.With(path)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(sr, r)
		hist.Observe(time.Since(start).Seconds())
		s.requests.With(path, strconv.Itoa(sr.code)).Inc()
	}
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	w.Write(body)
}

// decodeBody decodes a size-bounded JSON request body into dst,
// rejecting unknown fields so client typos fail loudly.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxRequestBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		bodyError(w, err)
		return err
	}
	return nil
}

// bodyError answers a failed body read or decode: 413 past
// Options.MaxRequestBytes, else 400.
func bodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, "bad request body: %v", err)
}

// requirePost rejects non-POST methods.
func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "%s requires POST", r.URL.Path)
		return false
	}
	return true
}

// wireConfig is a ladder configuration on the wire.
type wireConfig struct {
	CoreMHz float64 `json:"core_mhz"`
	MemMHz  float64 `json:"mem_mhz"`
}

func (c wireConfig) hw() hw.Config { return hw.Config{CoreMHz: c.CoreMHz, MemMHz: c.MemMHz} }

// lookup resolves a device name to its registry entry, writing a 404 on
// miss.
func (s *Server) lookup(w http.ResponseWriter, device string) (*registry.Entry, bool) {
	if device == "" {
		httpError(w, http.StatusBadRequest, "missing device name")
		return nil, false
	}
	e, ok := s.reg.Lookup(device)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown device %q", device)
		return nil, false
	}
	return e, true
}

// ---- /healthz ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"devices\":%d}\n", s.reg.Len())
}

// ---- /v1/devices ----

type deviceInfo struct {
	Name       string     `json:"name"`
	Device     string     `json:"device"`
	Arch       string     `json:"arch"`
	Ref        wireConfig `json:"ref"`
	TDPWatts   float64    `json:"tdp_watts"`
	NumConfigs int        `json:"num_configs"`
	Generation uint64     `json:"generation"`
	Iterations int        `json:"iterations"`
	Converged  bool       `json:"converged"`
	FittedAt   string     `json:"fitted_at"`
	Source     string     `json:"source"`
}

func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	infos := make([]deviceInfo, 0, s.reg.Len())
	for _, e := range s.reg.Entries() {
		m, meta := e.Snapshot()
		dev := e.Device()
		infos = append(infos, deviceInfo{
			Name:       e.Name(),
			Device:     dev.Name,
			Arch:       string(dev.Arch),
			Ref:        wireConfig{CoreMHz: m.Ref.CoreMHz, MemMHz: m.Ref.MemMHz},
			TDPWatts:   dev.TDP,
			NumConfigs: dev.NumConfigs(),
			Generation: meta.Generation,
			Iterations: meta.Iterations,
			Converged:  meta.Converged,
			FittedAt:   meta.FittedAt.UTC().Format(time.RFC3339),
			Source:     meta.Source,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"devices": infos})
}

// ---- /v1/predict ----

// bufPool holds response-encoding scratch buffers for the predict path.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

// predictScratch is the pooled per-request state of /v1/predict: the
// request body, its decoded form and the prediction scratch.
type predictScratch struct {
	body  bytes.Buffer
	req   predictRequest
	watts []float64
}

var scratchPool = sync.Pool{New: func() any { return &predictScratch{} }}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	sc := scratchPool.Get().(*predictScratch)
	defer scratchPool.Put(sc)
	if !s.readBody(w, r, &sc.body) {
		return
	}
	req := &sc.req
	if err := req.decode(sc.body.Bytes()); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	e, ok := s.lookup(w, req.device)
	if !ok {
		return
	}
	if len(req.items) == 0 {
		httpError(w, http.StatusBadRequest, "empty items")
		return
	}
	// One snapshot for the whole batch: every item is predicted by the
	// same model instance even if a re-fit swaps the entry mid-request.
	m, meta := e.Snapshot()
	dev := e.Device()
	ctx := r.Context()

	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	buf := (*bp)[:0]

	buf = append(buf, `{"device":`...)
	buf = appendJSONString(buf, req.device)
	buf = append(buf, `,"generation":`...)
	buf = strconv.AppendUint(buf, meta.Generation, 10)
	buf = append(buf, `,"results":[`...)

	total := 0
	for i := range req.items {
		it := &req.items[i]
		if err := backend.CheckContext(ctx, "serve: predict batch"); err != nil {
			httpError(w, httpStatusForCancel(ctx), "request canceled")
			return
		}
		var (
			surf  *core.Surface
			watts []float64
			err   error
		)
		if len(it.configs) == 0 {
			// Full ladder: served from the memoized prediction surface —
			// repeated utilization vectors reduce to one cache lookup.
			surf, err = core.Surfaces.Get(ctx, m, dev, m.Ref, it.util)
			if err != nil {
				var npe *core.NonPositiveRefPowerError
				if errors.As(err, &npe) {
					// Relative-energy columns are undefined for this
					// profile, but absolute power is not; predict directly.
					watts, err = sc.predictAll(m, it.util, dev.Ladder())
				}
			}
		} else {
			watts, err = sc.predictAll(m, it.util, it.configs)
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, "items[%d]: %v", i, err)
			return
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"watts":[`...)
		if surf != nil {
			// The surface formats its watts once; later requests copy
			// the text.
			buf = surf.AppendPowerText(buf)
			total += surf.Len()
		} else {
			for j, p := range watts {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendFloat(buf, p, 'g', -1, 64)
			}
			total += len(watts)
		}
		buf = append(buf, `]}`...)
	}
	buf = append(buf, `],"predictions":`...)
	buf = strconv.AppendInt(buf, int64(total), 10)
	buf = append(buf, '}', '\n')

	s.predictions.Add(uint64(total))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.Write(buf)
	*bp = buf[:0]
}

// readBody reads the whole size-bounded request body into body, answering
// 413 past Options.MaxRequestBytes and 400 on any other read error.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, body *bytes.Buffer) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxRequestBytes)
	body.Reset()
	if _, err := body.ReadFrom(r.Body); err != nil {
		bodyError(w, err)
		return false
	}
	return true
}

// predictAll evaluates the model over configs into the scratch watts
// slice, growing it as needed.
//
//gpower:noalloc pooled scratch: the watts slice grows to the ladder length once, then requests reuse it
func (sc *predictScratch) predictAll(m *core.Model, u core.Utilization, configs []hw.Config) ([]float64, error) {
	if cap(sc.watts) < len(configs) {
		//gpower:allocs warm-up only: each pooled scratch grows its watts slice to the largest request once
		sc.watts = make([]float64, len(configs))
	}
	watts := sc.watts[:len(configs)]
	if err := m.PredictAll(u, configs, watts); err != nil {
		return nil, err
	}
	return watts, nil
}

// httpStatusForCancel maps a canceled/deadline-exceeded request context
// to the closest HTTP status.
func httpStatusForCancel(ctx context.Context) int {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	// 499 is nginx's "client closed request"; the stdlib has no constant.
	return 499
}

// appendJSONString appends s as a JSON string literal. Registry names are
// plain ASCII ("GTX Titan X#42"); anything needing heavier escaping takes
// the slow path through encoding/json.
//
//gpower:noalloc the ASCII fast path appends into the pooled response buffer; only exotic names defer to encoding/json
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			b, _ := json.Marshal(s) //gpower:allocs slow path: names needing JSON escaping defer to encoding/json; registry names are plain ASCII
			return append(buf, b...)
		}
	}
	//gpower:allocs appends into the pooled response buffer, which keeps its 64 KiB capacity across requests
	buf = append(buf, '"')
	buf = append(buf, s...) //gpower:allocs appends into the pooled response buffer, which keeps its 64 KiB capacity across requests
	return append(buf, '"')
}

// ---- /v1/govern ----

type governRequest struct {
	Device      string          `json:"device"`
	Utilization wireUtilization `json:"utilization"`
	Policy      string          `json:"policy"`
	// PowerCapWatts only matters for max-perf-under-cap; 0 means the TDP.
	PowerCapWatts float64 `json:"power_cap_watts,omitempty"`
}

type governResponse struct {
	Device     string     `json:"device"`
	Generation uint64     `json:"generation"`
	Policy     string     `json:"policy"`
	Config     wireConfig `json:"config"`
	PowerWatts float64    `json:"power_watts"`
	RelTime    float64    `json:"rel_time"`
}

func (s *Server) handleGovern(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req governRequest
	if s.decodeBody(w, r, &req) != nil {
		return
	}
	e, ok := s.lookup(w, req.Device)
	if !ok {
		return
	}
	policy, err := governor.ParsePolicy(req.Policy)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	u := core.Utilization(req.Utilization)
	m, meta := e.Snapshot()
	cfg, err := governor.Decide(r.Context(), m, e.Device(), policy, req.PowerCapWatts, u)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	power, err := m.Predict(u, cfg)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.opCore.With(e.Name()).Set(cfg.CoreMHz)
	s.opMem.With(e.Name()).Set(cfg.MemMHz)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(governResponse{
		Device:     e.Name(),
		Generation: meta.Generation,
		Policy:     policy.String(),
		Config:     wireConfig{CoreMHz: cfg.CoreMHz, MemMHz: cfg.MemMHz},
		PowerWatts: power,
		RelTime:    core.EstimateRelativeTime(u, m.Ref, cfg),
	})
}

// ---- /v1/breakdown ----

type breakdownRequest struct {
	Device      string          `json:"device"`
	Utilization wireUtilization `json:"utilization"`
	// Config is the ladder point to decompose at; zero means the model's
	// reference configuration.
	Config *wireConfig `json:"config,omitempty"`
}

type breakdownResponse struct {
	Device     string             `json:"device"`
	Generation uint64             `json:"generation"`
	Config     wireConfig         `json:"config"`
	Constant   float64            `json:"constant_watts"`
	Components map[string]float64 `json:"component_watts"`
	TotalWatts float64            `json:"total_watts"`
}

func (s *Server) handleBreakdown(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req breakdownRequest
	if s.decodeBody(w, r, &req) != nil {
		return
	}
	e, ok := s.lookup(w, req.Device)
	if !ok {
		return
	}
	u := core.Utilization(req.Utilization)
	m, meta := e.Snapshot()
	cfg := m.Ref
	if req.Config != nil {
		cfg = req.Config.hw()
	}
	b, err := m.Decompose(u, cfg)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	comps := make(map[string]float64, len(b.Component))
	s.breakdown.With(e.Name(), "Constant").Set(b.Constant)
	for _, c := range hw.Components {
		comps[c.String()] = b.Component[c]
		s.breakdown.With(e.Name(), c.String()).Set(b.Component[c])
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(breakdownResponse{
		Device:     e.Name(),
		Generation: meta.Generation,
		Config:     wireConfig{CoreMHz: cfg.CoreMHz, MemMHz: cfg.MemMHz},
		Constant:   b.Constant,
		Components: comps,
		TotalWatts: b.Total(),
	})
}

// ---- /metrics ----

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}
