package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"gpupower/internal/core"
	"gpupower/internal/governor"
	"gpupower/internal/hw"
)

// Request kinds, one per gpowerd endpoint the workloads drive.
const (
	kindPredict = iota
	kindGovern
	kindBreakdown
	numKinds
)

var kindPaths = [numKinds]string{"/v1/predict", "/v1/govern", "/v1/breakdown"}

// request is one generated input: its wire form plus what the in-process
// check and replay need.
type request struct {
	kind    int
	entry   int                // index of the fleet member it addresses
	items   []core.Utilization // predict items; govern and breakdown use items[0]
	configs []hw.Config        // predict: explicit configs, nil for the full ladder
	policy  governor.Policy    // govern
	cfg     *hw.Config         // breakdown: nil for the reference configuration
	body    []byte             // JSON body
	wire    []byte             // the complete HTTP request
}

// rng is SplitMix64: small, seedable and identical on every platform, so a
// seed names the same inputs everywhere.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed*0x9E3779B97F4A7C15 ^ stream*0xBF58476D1CE4E5B9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// utilization draws a utilization vector: each component is active with
// probability 0.7 at a level in [0.05, 0.65), rounded to four decimals so
// the wire form is short; at least one component is active.
func (r *rng) utilization() core.Utilization {
	u := core.Utilization{}
	for _, c := range hw.Components {
		if r.float() < 0.7 {
			u[c] = math.Round((0.05+0.6*r.float())*1e4) / 1e4
		}
	}
	if len(u) == 0 {
		u[hw.SP] = 0.5
	}
	return u
}

// wireUtil renders u as the wire's component → level object, in canonical
// component order so a body's bytes are a function of the seed alone.
func wireUtil(b []byte, u core.Utilization) []byte {
	b = append(b, '{')
	first := true
	for _, c := range hw.Components {
		v, ok := u[c]
		if !ok {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = strconv.AppendQuote(b, c.String())
		b = append(b, ':')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, '}')
}

func wireConfig(b []byte, c hw.Config) []byte {
	b = append(b, `{"core_mhz":`...)
	b = strconv.AppendFloat(b, c.CoreMHz, 'g', -1, 64)
	b = append(b, `,"mem_mhz":`...)
	b = strconv.AppendFloat(b, c.MemMHz, 'g', -1, 64)
	return append(b, '}')
}

// encode fills body and wire from the request's fields.
func (q *request) encode(name string) {
	b := []byte(`{"device":`)
	b = strconv.AppendQuote(b, name)
	switch q.kind {
	case kindPredict:
		b = append(b, `,"items":[`...)
		for i, u := range q.items {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"utilization":`...)
			b = wireUtil(b, u)
			if q.configs != nil {
				b = append(b, `,"configs":[`...)
				for j, c := range q.configs {
					if j > 0 {
						b = append(b, ',')
					}
					b = wireConfig(b, c)
				}
				b = append(b, ']')
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	case kindGovern:
		b = append(b, `,"utilization":`...)
		b = wireUtil(b, q.items[0])
		b = append(b, `,"policy":`...)
		b = strconv.AppendQuote(b, q.policy.String())
	case kindBreakdown:
		b = append(b, `,"utilization":`...)
		b = wireUtil(b, q.items[0])
		if q.cfg != nil {
			b = append(b, `,"config":`...)
			b = wireConfig(b, *q.cfg)
		}
	}
	q.body = append(b, '}')
	q.wire = encodeRequest(kindPaths[q.kind], q.body)
}

// mixedRequest draws request g of a govern-stream style mix over n fleet
// members: round-robin members; 70% /v1/govern (min-energy or min-EDP), 20% single-item
// /v1/predict at four explicit ladder configurations, 10% /v1/breakdown;
// a fresh utilization vector every time.
func mixedRequest(seed uint64, g int, f *fittedFleet) *request {
	r := newRNG(seed, uint64(g)+1)
	q := &request{entry: g % len(f.specs), items: []core.Utilization{r.utilization()}}
	ladder := f.devices[q.entry].Ladder()
	switch x := r.float(); {
	case x < 0.7:
		q.kind = kindGovern
		// The objective policies always have an answer; max-perf-under-cap
		// answers 422 when a vector cannot meet the cap, which would count
		// as a failed operation.
		q.policy = []governor.Policy{governor.MinEnergy, governor.MinEDP}[r.intn(2)]
	case x < 0.9:
		q.kind = kindPredict
		for j := 0; j < 4; j++ {
			q.configs = append(q.configs, ladder[r.intn(len(ladder))])
		}
	default:
		q.kind = kindBreakdown
		if r.float() < 0.5 {
			c := ladder[r.intn(len(ladder))]
			q.cfg = &c
		}
	}
	q.encode(f.specs[q.entry].String())
	return q
}

// Response shapes, decoded only when checking answers.
type predictResponse struct {
	Device  string `json:"device"`
	Results []struct {
		Watts []float64 `json:"watts"`
	} `json:"results"`
	Predictions int `json:"predictions"`
}

type wireCfg struct {
	CoreMHz float64 `json:"core_mhz"`
	MemMHz  float64 `json:"mem_mhz"`
}

type governResponse struct {
	Device     string  `json:"device"`
	Policy     string  `json:"policy"`
	Config     wireCfg `json:"config"`
	PowerWatts float64 `json:"power_watts"`
	RelTime    float64 `json:"rel_time"`
}

type breakdownResponse struct {
	Device     string             `json:"device"`
	Config     wireCfg            `json:"config"`
	Constant   float64            `json:"constant_watts"`
	Components map[string]float64 `json:"component_watts"`
	TotalWatts float64            `json:"total_watts"`
}

func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// check verifies a response against the in-process models, which are the
// same fits gpowerd serves: every watt must match Model.Predict bit for
// bit, every decision governor.Decide, every breakdown Model.Decompose.
func (q *request) check(ctx context.Context, f *fittedFleet, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("%s: HTTP %d: %.200s", kindPaths[q.kind], status, body)
	}
	m, dev, name := f.models[q.entry], f.devices[q.entry], f.specs[q.entry].String()
	u := q.items[0]
	switch q.kind {
	case kindPredict:
		var resp predictResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Device != name || len(resp.Results) != len(q.items) {
			return fmt.Errorf("predict: device %q with %d results, want %q with %d", resp.Device, len(resp.Results), name, len(q.items))
		}
		cfgs := q.configs
		if cfgs == nil {
			cfgs = dev.Ladder()
		}
		for i, it := range q.items {
			w := resp.Results[i].Watts
			if len(w) != len(cfgs) {
				return fmt.Errorf("predict: item %d has %d watts, want %d", i, len(w), len(cfgs))
			}
			for j, c := range cfgs {
				want, err := m.Predict(it, c)
				if err != nil {
					return err
				}
				if !same(w[j], want) {
					return fmt.Errorf("predict: item %d at %v: %v W, want %v W", i, c, w[j], want)
				}
			}
		}
	case kindGovern:
		var resp governResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		cfg, err := governor.Decide(ctx, m, dev, q.policy, 0, u)
		if err != nil {
			return err
		}
		power, err := m.Predict(u, cfg)
		if err != nil {
			return err
		}
		got := hw.Config{CoreMHz: resp.Config.CoreMHz, MemMHz: resp.Config.MemMHz}
		if resp.Device != name || resp.Policy != q.policy.String() || got != cfg ||
			!same(resp.PowerWatts, power) || !same(resp.RelTime, core.EstimateRelativeTime(u, m.Ref, cfg)) {
			return fmt.Errorf("govern: got %+v, want %v at %v W", resp, cfg, power)
		}
	case kindBreakdown:
		var resp breakdownResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		cfg := m.Ref
		if q.cfg != nil {
			cfg = *q.cfg
		}
		b, err := m.Decompose(u, cfg)
		if err != nil {
			return err
		}
		ok := resp.Device == name && same(resp.Constant, b.Constant) && same(resp.TotalWatts, b.Total()) &&
			len(resp.Components) == len(hw.Components)
		for _, c := range hw.Components {
			ok = ok && same(resp.Components[c.String()], b.Component[c])
		}
		if !ok {
			return fmt.Errorf("breakdown: got %+v, want %+v", resp, b)
		}
	}
	return nil
}
