package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gpupower/internal/core"
	"gpupower/internal/governor"
	"gpupower/internal/hw"
	"gpupower/internal/registry"
)

// testModel builds a synthetic fitted model for dev; beta0 perturbs the
// core static coefficient so two models are distinguishable everywhere.
func testModel(t testing.TB, dev *hw.Device, beta0 float64) *core.Model {
	t.Helper()
	m := &core.Model{
		DeviceName: dev.Name,
		Ref:        dev.DefaultConfig(),
		Beta:       [4]float64{beta0, 0.02, 10, 0.002},
		OmegaCore: map[hw.Component]float64{
			hw.Int: 0.011, hw.SP: 0.013, hw.DP: 0.017,
			hw.SF: 0.007, hw.Shared: 0.005, hw.L2: 0.009,
		},
		OmegaMem:        0.004,
		Voltages:        core.NewVoltageTable(dev.CoreFreqs, dev.MemFreqs),
		L2BytesPerCycle: dev.L2BytesPerCycle,
		Iterations:      3,
		Converged:       true,
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("synthetic model invalid: %v", err)
	}
	return m
}

// newTestServer serves one synthetic Tesla K40c entry.
func newTestServer(t *testing.T, opts *Options) (*httptest.Server, *registry.Entry, *core.Model) {
	t.Helper()
	dev := hw.TeslaK40c()
	m := testModel(t, dev, 40)
	e, err := registry.NewEntry("Tesla K40c", dev, nil, nil, m, registry.FitMeta{Source: "test"})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	if err := reg.Add(e); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, opts))
	t.Cleanup(ts.Close)
	return ts, e, m
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHealthz(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Status  string `json:"status"`
		Devices int    `json:"devices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || out.Status != "ok" || out.Devices != 1 {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, out)
	}
}

func TestDevices(t *testing.T) {
	ts, e, m := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/devices")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Devices []struct {
			Name       string  `json:"name"`
			Arch       string  `json:"arch"`
			TDPWatts   float64 `json:"tdp_watts"`
			NumConfigs int     `json:"num_configs"`
			Generation uint64  `json:"generation"`
			Source     string  `json:"source"`
		} `json:"devices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Devices) != 1 {
		t.Fatalf("got %d devices", len(out.Devices))
	}
	d := out.Devices[0]
	if d.Name != e.Name() || d.Arch != "Kepler" || d.NumConfigs != 4 || d.Source != "test" {
		t.Fatalf("device listing wrong: %+v", d)
	}
	if d.Generation != m.Generation() {
		t.Fatalf("generation %d, want %d", d.Generation, m.Generation())
	}
}

// predictResponse mirrors the wire schema.
type predictResponse struct {
	Device     string `json:"device"`
	Generation uint64 `json:"generation"`
	Results    []struct {
		Watts []float64 `json:"watts"`
	} `json:"results"`
	Predictions int `json:"predictions"`
}

func TestPredictFullLadderBitwise(t *testing.T) {
	ts, _, m := newTestServer(t, nil)
	u := core.Utilization{hw.SP: 0.8, hw.DRAM: 0.4, hw.L2: 0.2}
	body := `{"device":"Tesla K40c","items":[{"utilization":{"SP":0.8,"DRAM":0.4,"L2":0.2}},{"utilization":{"L2":0.2,"SP":0.8,"DRAM":0.4}}]}`
	// The first post computes the surface and formats its text; the
	// second copies the cached text. Both must be the same bytes.
	resp, data := postJSON(t, ts.URL+"/v1/predict", body)
	if resp.StatusCode != 200 {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	resp, warm := postJSON(t, ts.URL+"/v1/predict", body)
	if resp.StatusCode != 200 {
		t.Fatalf("warm: HTTP %d: %s", resp.StatusCode, warm)
	}
	if string(warm) != string(data) {
		t.Fatalf("warm response differs from cold:\ncold %s\nwarm %s", data, warm)
	}
	var out predictResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	configs := hw.TeslaK40c().AllConfigs()
	if len(out.Results) != 2 {
		t.Fatalf("shape wrong: %+v", out)
	}
	if out.Predictions != 2*len(configs) {
		t.Fatalf("predictions = %d, want %d", out.Predictions, 2*len(configs))
	}
	if out.Generation != m.Generation() {
		t.Fatalf("generation = %d, want %d", out.Generation, m.Generation())
	}
	for _, res := range out.Results {
		if len(res.Watts) != len(configs) {
			t.Fatalf("shape wrong: %+v", out)
		}
		for i, cfg := range configs {
			want, err := m.Predict(u, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(res.Watts[i]) != math.Float64bits(want) {
				t.Fatalf("config %v: served %x, direct %x", cfg, res.Watts[i], want)
			}
		}
	}
}

func TestPredictExplicitConfigsBitwise(t *testing.T) {
	ts, _, m := newTestServer(t, nil)
	u := core.Utilization{hw.Int: 0.3, hw.DRAM: 0.9}
	resp, data := postJSON(t, ts.URL+"/v1/predict",
		`{"device":"Tesla K40c","items":[{"utilization":{"INT":0.3,"DRAM":0.9},"configs":[{"core_mhz":666,"mem_mhz":3004},{"core_mhz":810,"mem_mhz":3004}]}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	var out predictResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	want := []hw.Config{{CoreMHz: 666, MemMHz: 3004}, {CoreMHz: 810, MemMHz: 3004}}
	if len(out.Results) != 1 || len(out.Results[0].Watts) != len(want) {
		t.Fatalf("shape wrong: %+v", out)
	}
	for i, cfg := range want {
		p, err := m.Predict(u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out.Results[0].Watts[i]) != math.Float64bits(p) {
			t.Fatalf("config %v: served %x, direct %x", cfg, out.Results[0].Watts[i], p)
		}
	}
}

// predictErrorCases are rejected /v1/predict bodies; FuzzPredictDecode
// seeds its corpus with them too.
var predictErrorCases = []struct {
	name string
	body string
	code int
}{
	{"unknown device", `{"device":"nope","items":[{"utilization":{"SP":1}}]}`, 404},
	{"missing device", `{"items":[{"utilization":{"SP":1}}]}`, 400},
	{"empty items", `{"device":"Tesla K40c","items":[]}`, 400},
	{"bad component", `{"device":"Tesla K40c","items":[{"utilization":{"GPU":1}}]}`, 400},
	{"negative utilization", `{"device":"Tesla K40c","items":[{"utilization":{"SP":-1}}]}`, 400},
	{"unknown field", `{"device":"Tesla K40c","items":[],"wat":1}`, 400},
	{"off-ladder config", `{"device":"Tesla K40c","items":[{"utilization":{"SP":1},"configs":[{"core_mhz":1,"mem_mhz":1}]}]}`, 400},
	{"malformed json", `{`, 400},
	{"component named twice", `{"device":"Tesla K40c","items":[{"utilization":{"SP":0.2,"sp":0.9}}]}`, 400},
	{"component repeated exactly", `{"device":"Tesla K40c","items":[{"utilization":{"SP":0.2,"SP":0.9}}]}`, 400},
	{"device named twice", `{"device":"Tesla K40c","Device":"Tesla K40c","items":[{"utilization":{"SP":1}}]}`, 400},
	{"config field named twice", `{"device":"Tesla K40c","items":[{"utilization":{"SP":1},"configs":[{"core_mhz":666,"mem_mhz":3004,"CORE_MHZ":666}]}]}`, 400},
	{"long s is not s", `{"device":"Tesla K40c","items":[{"utilization":{"ſhared":1}}]}`, 400},
	{"out-of-range number", `{"device":"Tesla K40c","items":[{"utilization":{"SP":1e400}}]}`, 400},
	{"trailing comma", `{"device":"Tesla K40c","items":[{"utilization":{"SP":1},}]}`, 400},
}

func TestPredictErrors(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	for _, tc := range predictErrorCases {
		resp, data := postJSON(t, ts.URL+"/v1/predict", tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: HTTP %d (want %d): %s", tc.name, resp.StatusCode, tc.code, data)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON: %s", tc.name, data)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/predict = %d, want 405", resp.StatusCode)
	}
}

func TestPredictBodyBound(t *testing.T) {
	ts, _, _ := newTestServer(t, &Options{MaxRequestBytes: 256})
	big := `{"device":"Tesla K40c","items":[{"utilization":{"SP":0.1234567890123}}` +
		strings.Repeat(`,{"utilization":{"SP":0.5}}`, 64) + `]}`
	if len(big) <= 256 {
		t.Fatalf("test body too small (%d bytes)", len(big))
	}
	// The whole body is read before it is decoded, so a body past the
	// bound is a 413 wherever it goes wrong: a syntax error inside the
	// bound, or a valid request followed by padding past it.
	for _, body := range []string{
		big,
		`{"device":` + strings.Repeat("x", 300),
		`{"device":"Tesla K40c","items":[{"utilization":{"SP":0.5}}]}` + strings.Repeat(" ", 300),
	} {
		resp, data := postJSON(t, ts.URL+"/v1/predict", body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%d-byte body: HTTP %d (want 413): %s", len(body), resp.StatusCode, data)
		}
	}
	// At the bound, trailing bytes after the request are ignored.
	body := `{"device":"Tesla K40c","items":[{"utilization":{"SP":0.5}}]} trailing`
	if resp, data := postJSON(t, ts.URL+"/v1/predict", body); resp.StatusCode != 200 {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
}

func TestGovernMatchesDecide(t *testing.T) {
	ts, e, m := newTestServer(t, nil)
	u := core.Utilization{hw.SP: 0.9, hw.DRAM: 0.2}
	resp, data := postJSON(t, ts.URL+"/v1/govern",
		`{"device":"Tesla K40c","utilization":{"SP":0.9,"DRAM":0.2},"policy":"min-EDP"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Config  struct{ CoreMHz, MemMHz float64 } `json:"-"`
		Raw     json.RawMessage                   `json:"config"`
		Policy  string                            `json:"policy"`
		Power   float64                           `json:"power_watts"`
		RelTime float64                           `json:"rel_time"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		CoreMHz float64 `json:"core_mhz"`
		MemMHz  float64 `json:"mem_mhz"`
	}
	if err := json.Unmarshal(out.Raw, &cfg); err != nil {
		t.Fatal(err)
	}
	want, err := governor.Decide(t.Context(), m, e.Device(), governor.MinEDP, 0, u)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(cfg.CoreMHz) != math.Float64bits(want.CoreMHz) ||
		math.Float64bits(cfg.MemMHz) != math.Float64bits(want.MemMHz) {
		t.Fatalf("served config (%g,%g), direct Decide %v", cfg.CoreMHz, cfg.MemMHz, want)
	}
	wantPower, err := m.Predict(u, want)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(out.Power) != math.Float64bits(wantPower) {
		t.Fatalf("power %x, want %x", out.Power, wantPower)
	}
	if out.Policy != "min-EDP" {
		t.Fatalf("policy echoed as %q", out.Policy)
	}

	resp, data = postJSON(t, ts.URL+"/v1/govern",
		`{"device":"Tesla K40c","utilization":{"SP":0.9},"policy":"warp-speed"}`)
	if resp.StatusCode != 400 {
		t.Fatalf("unknown policy: HTTP %d: %s", resp.StatusCode, data)
	}
	// A cap below every ladder point is unsatisfiable.
	resp, data = postJSON(t, ts.URL+"/v1/govern",
		`{"device":"Tesla K40c","utilization":{"SP":0.9},"policy":"max-perf-under-cap","power_cap_watts":1}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unsatisfiable cap: HTTP %d: %s", resp.StatusCode, data)
	}
}

func TestBreakdownMatchesDecompose(t *testing.T) {
	ts, _, m := newTestServer(t, nil)
	u := core.Utilization{hw.SP: 0.5, hw.DRAM: 0.5, hw.Shared: 0.1}
	resp, data := postJSON(t, ts.URL+"/v1/breakdown",
		`{"device":"Tesla K40c","utilization":{"SP":0.5,"DRAM":0.5,"Shared":0.1},"config":{"core_mhz":745,"mem_mhz":3004}}`)
	if resp.StatusCode != 200 {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Constant   float64            `json:"constant_watts"`
		Components map[string]float64 `json:"component_watts"`
		Total      float64            `json:"total_watts"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	b, err := m.Decompose(u, hw.Config{CoreMHz: 745, MemMHz: 3004})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(out.Constant) != math.Float64bits(b.Constant) {
		t.Fatalf("constant %x, want %x", out.Constant, b.Constant)
	}
	if math.Float64bits(out.Total) != math.Float64bits(b.Total()) {
		t.Fatalf("total %x, want %x", out.Total, b.Total())
	}
	for _, c := range hw.Components {
		if math.Float64bits(out.Components[c.String()]) != math.Float64bits(b.Component[c]) {
			t.Fatalf("%s: %x, want %x", c, out.Components[c.String()], b.Component[c])
		}
	}
}

// TestGovernBreakdownErrors checks that /v1/govern and /v1/breakdown read
// utilization by /v1/predict's rules: the same scanner decodes it.
func TestGovernBreakdownErrors(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	utils := []struct {
		name string
		util string
		code int
	}{
		{"component named twice", `{"SP":0.2,"sp":0.9}`, 400},
		{"component repeated exactly", `{"DRAM":0.2,"DRAM":0.9}`, 400},
		{"unknown component", `{"GPU":1}`, 400},
		{"long s is not s", `{"ſhared":1}`, 400},
		{"negative level", `{"SP":-0.5}`, 400},
		{"not an object", `[0.5]`, 400},
		{"escaped name", `{"\u0053P":0.5}`, 200},
		{"null level", `{"SP":null,"DRAM":0.5}`, 200},
		{"null vector", `null`, 200},
	}
	for _, tc := range utils {
		for _, ep := range []struct{ path, extra string }{
			{"/v1/govern", `,"policy":"min-EDP"`},
			{"/v1/breakdown", ``},
		} {
			body := `{"device":"Tesla K40c","utilization":` + tc.util + ep.extra + `}`
			resp, data := postJSON(t, ts.URL+ep.path, body)
			if resp.StatusCode != tc.code {
				t.Errorf("%s %s: HTTP %d (want %d): %s", ep.path, tc.name, resp.StatusCode, tc.code, data)
			}
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	postJSON(t, ts.URL+"/v1/predict",
		`{"device":"Tesla K40c","items":[{"utilization":{"SP":0.8}}]}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		`gpowerd_requests_total{path="/v1/predict",code="200"} 1`,
		"gpowerd_predictions_total 4",
		"# TYPE gpowerd_request_duration_seconds histogram",
		"gpowerd_surface_cache_hits_total",
		"gpowerd_devices 1",
		`gpowerd_model_generation{device="Tesla K40c"}`,
		`gpowerd_model_converged{device="Tesla K40c"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestSwapMidTraffic drives concurrent /v1/predict requests through a real
// HTTP stack while the entry swaps between two models; every response
// batch must be bitwise-identical to the expected vector of the model its
// reported generation names — the serving-layer version of the registry's
// snapshot-per-batch guarantee. Full-ladder watts are served from text
// cached on each surface, so this also checks that a swap never serves
// the previous generation's text. Run with -race.
func TestSwapMidTraffic(t *testing.T) {
	ts, e, a := newTestServer(t, nil)
	dev := e.Device()
	b := testModel(t, dev, 55)
	u := core.Utilization{hw.SP: 0.8, hw.DRAM: 0.4, hw.L2: 0.2}
	configs := dev.AllConfigs()

	expect := func(m *core.Model) []float64 {
		out := make([]float64, len(configs))
		if err := m.PredictAll(u, configs, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	// byGen maps every installed generation to its model's expected batch.
	// A swapped-out model gets a fresh generation, so it is recorded anew
	// before each install.
	var byGen sync.Map
	byGen.Store(a.Generation(), expect(a))

	body := `{"device":"Tesla K40c","items":[{"utilization":{"SP":0.8,"DRAM":0.4,"L2":0.2}}]}`
	post := func() (*predictResponse, error) {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != 200 {
			return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
		}
		var out predictResponse
		if err := json.Unmarshal(data, &out); err != nil {
			return nil, err
		}
		want, ok := byGen.Load(out.Generation)
		if !ok {
			return nil, fmt.Errorf("generation %d was never installed", out.Generation)
		}
		if !batchEquals(out.Results[0].Watts, want.([]float64)) {
			return nil, fmt.Errorf("generation %d served another model's batch: %v", out.Generation, out.Results[0].Watts)
		}
		return &out, nil
	}

	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := post(); err != nil {
					errc <- err
					return
				}
			}
		}()
	}

	cur, next := a, b
	for i := 0; i < 150; i++ {
		byGen.Store(next.Generation(), expect(next))
		if _, err := e.Swap(next, registry.FitMeta{}); err != nil {
			t.Fatal(err)
		}
		cur, next = next, cur
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// After the last swap, the text comes from the installed model's
	// surface.
	out, err := post()
	if err != nil {
		t.Fatal(err)
	}
	if out.Generation != cur.Generation() {
		t.Fatalf("served generation %d, installed %d", out.Generation, cur.Generation())
	}
}

func batchEquals(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// TestPredictEncoderRoundTrip pins the manual response encoder against
// encoding/json semantics: every float that goes out re-parses to the
// identical bits (Go emits shortest round-trip decimals).
func TestPredictEncoderRoundTrip(t *testing.T) {
	ts, _, m := newTestServer(t, nil)
	// An awkward utilization: long decimals everywhere.
	resp, data := postJSON(t, ts.URL+"/v1/predict",
		`{"device":"Tesla K40c","items":[{"utilization":{"SP":0.12345678901234567,"DRAM":0.9876543210987654,"INT":1e-9}}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	var out predictResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	u := core.Utilization{hw.SP: 0.12345678901234567, hw.DRAM: 0.9876543210987654, hw.Int: 1e-9}
	for i, cfg := range hw.TeslaK40c().AllConfigs() {
		want, err := m.Predict(u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out.Results[0].Watts[i]) != math.Float64bits(want) {
			t.Fatalf("config %v: %x vs %x", cfg, out.Results[0].Watts[i], want)
		}
	}
}
