package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"gpupower/internal/core"
	"gpupower/internal/hw"
)

// refPredictRequest is the /v1/predict body as encoding/json decodes it:
// the schema the handler decoded with json.Decoder before the scanner.
type refPredictRequest struct {
	Device string `json:"device"`
	Items  []struct {
		Utilization map[string]float64 `json:"utilization"`
		Configs     []struct {
			CoreMHz float64 `json:"core_mhz"`
			MemMHz  float64 `json:"mem_mhz"`
		} `json:"configs,omitempty"`
	} `json:"items"`
}

// refDecode is the reference decoder: json.Decoder with
// DisallowUnknownFields, then each utilization map converted by the old
// rules (component names fold ASCII-only; levels must be non-negative).
func refDecode(body []byte) (*predictRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var ref refPredictRequest
	if err := dec.Decode(&ref); err != nil {
		return nil, err
	}
	out := &predictRequest{device: ref.Device}
	for _, it := range ref.Items {
		item := predictItem{util: core.Utilization{}}
		for name, v := range it.Utilization {
			c, ok := refComponent(name)
			if !ok {
				return nil, errors.New("unknown component " + name)
			}
			if v < 0 {
				return nil, errors.New("negative level")
			}
			item.util[c] = v
		}
		for _, wc := range it.Configs {
			item.configs = append(item.configs, hw.Config{CoreMHz: wc.CoreMHz, MemMHz: wc.MemMHz})
		}
		out.items = append(out.items, item)
	}
	return out, nil
}

// refComponent matches a component name ASCII case-insensitively.
func refComponent(name string) (hw.Component, bool) {
	for _, c := range hw.Components {
		want := c.String()
		if len(name) != len(want) {
			continue
		}
		match := true
		for i := 0; i < len(name); i++ {
			if asciiLower(name[i]) != asciiLower(want[i]) {
				match = false
				break
			}
		}
		if match {
			return c, true
		}
	}
	return 0, false
}

func asciiLower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// hasRepeatedKey reports whether the body's first JSON value has an
// object that names a key twice under bytes.EqualFold, as far as the
// value parses.
func hasRepeatedKey(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	repeated := false
	var walk func() error
	walk = func() error {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch tok {
		case json.Delim('{'):
			var keys []string
			for dec.More() {
				kt, err := dec.Token()
				if err != nil {
					return err
				}
				k := kt.(string)
				for _, prev := range keys {
					if bytes.EqualFold([]byte(prev), []byte(k)) {
						repeated = true
					}
				}
				keys = append(keys, k)
				if err := walk(); err != nil {
					return err
				}
			}
			_, err = dec.Token()
			return err
		case json.Delim('['):
			for dec.More() {
				if err := walk(); err != nil {
					return err
				}
			}
			_, err = dec.Token()
			return err
		}
		return nil
	}
	walk()
	return repeated
}

// sameRequest reports whether two decoded requests are equal bit for bit.
func sameRequest(got, want *predictRequest) bool {
	if got.device != want.device || len(got.items) != len(want.items) {
		return false
	}
	for i := range got.items {
		g, w := got.items[i], want.items[i]
		if len(g.util) != len(w.util) || len(g.configs) != len(w.configs) {
			return false
		}
		for c, v := range w.util {
			gv, ok := g.util[c]
			if !ok || math.Float64bits(gv) != math.Float64bits(v) {
				return false
			}
		}
		for j := range w.configs {
			if math.Float64bits(g.configs[j].CoreMHz) != math.Float64bits(w.configs[j].CoreMHz) ||
				math.Float64bits(g.configs[j].MemMHz) != math.Float64bits(w.configs[j].MemMHz) {
				return false
			}
		}
	}
	return true
}

// decodeSeeds exercise the decoder's rules, in bodies it accepts and
// bodies it rejects.
var decodeSeeds = []string{
	`{"device":"Tesla K40c","items":[{"utilization":{"SP":0.5}}]}`,
	`{"\u0064evice":"Tesla K40c","items":[{"utilization":{"\u0053P":0.5,"\u00dfP":0.5}}]}`,
	`{"device":"Tesla K40c","items":[{"utilization":{"\u0053P":0.5}}]}`,
	`{"Device":"Tesla K40c","itemſ":[{"utilization":{"sp":0.5,"dram":0.25}}]}`,
	`{"DEVICE":"Tesla K40c","ITEMS":[{"UTILIZATION":{"L2":1e-3},"CONFIGS":[{"CORE_MHZ":666,"MEM_MHZ":3004}]}]}`,
	`{"device":null,"items":null}`,
	`{"device":"Tesla K40c","items":[null,{"utilization":null,"configs":null},{"utilization":{"SP":null}}]}`,
	`{"device":"Tesla K40c","items":[{"utilization":{"SP":0.5},"configs":[null,{"core_mhz":null,"mem_mhz":3004}]}]}`,
	`null`,
	` {"device":"Tesla K40c","items":[{"utilization":{"SP":-0,"DP":0.0e-0,"INT":12E+1}}]} trailing`,
	`{"device":"GTX Titan X","items":[{"utilization":{"SP":0.12345678901234567,"DRAM":0.9876543210987654,"INT":1e-9}}]}`,
	"{\"device\":\"Tesla K40c\",\t\"items\" :\r\n[ { \"utilization\" : { \"SP\" : 1 } } ] }",
	`{"device":"café \"quoted\"","items":[]}`,
	`{"device":"Tesla K40c","items":[{"utilization":{"ſhared":1}}]}`,
	`{"device":"Tesla K40c","items":[{"utilization":{"SP":0.2,"sp":0.9}}]}`,
	`{"device":"Tesla K40c","items":[{"utilization":{"SP":01}}]}`,
	`{"device":"Tesla K40c","items":[{"utilization":{"SP":1.}}]}`,
	`{"device":"Tesla K40c","items":[{"utilization":{"SP":"1"}}]}`,
	`{"device":"Tesla K40c","items":[{"utilization":{"SP":1}},]}`,
	`{"device":"Tesla K40c","items":[{"utilization":{"SP":1}}]`,
	`{"device":"\x01"}`,
	`{"device":"\q"}`,
	"{\"device\":\"\xff\"}",
	`nul`,
	`[]`,
	``,
}

// FuzzPredictDecode is a differential test of the /v1/predict decoder
// against encoding/json. For a body without repeated keys, both reject it
// or both decode it to the same request, bit for bit; a body with a
// repeated key must be rejected. One decoder is reused across inputs, so
// stale pooled state would show as a mismatch.
func FuzzPredictDecode(f *testing.F) {
	for _, tc := range predictErrorCases {
		f.Add([]byte(tc.body))
	}
	for _, body := range decodeSeeds {
		f.Add([]byte(body))
	}
	f.Add(batchBody("GTX Titan X", 64, 16, 21))
	var req predictRequest
	f.Fuzz(func(t *testing.T, body []byte) {
		err := req.decode(body)
		if hasRepeatedKey(body) {
			if err == nil {
				t.Fatalf("repeated key accepted: %q", body)
			}
			return
		}
		want, refErr := refDecode(body)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder err %v, encoding/json err %v, body %q", err, refErr, body)
		}
		if err == nil && !sameRequest(&req, want) {
			t.Fatalf("decoded %+v, encoding/json %+v, body %q", req, *want, body)
		}
	})
}

// TestPredictDecodeFolding pins key folding: envelope keys fold as
// encoding/json folds struct fields (Unicode, after unescaping), while
// component names fold ASCII-only.
func TestPredictDecodeFolding(t *testing.T) {
	cases := []struct {
		body string
		ok   bool
	}{
		{`{"device":"d","items":[{"utilization":{"SP":0.5}}]}`, true},
		{`{"Device":"d","items":[{"utilization":{"SP":0.5}}]}`, true},
		{`{"device":"d","itemſ":[{"utilization":{"SP":0.5}}]}`, true},
		{`{"device":"d","items":[{"utilization":{"sp":0.5}}]}`, true},
		{`{"\u0044evice":"d","items":[{"utilization":{"\u0053P":0.5}}]}`, true},
		{`{"device":"d","items":[{"utilization":{"ſp":0.5}}]}`, false},
		{`{"device":"d","items":[{"utilization":{"ſhared":0.5}}]}`, false},
	}
	var req predictRequest
	for _, tc := range cases {
		err := req.decode([]byte(tc.body))
		if (err == nil) != tc.ok {
			t.Errorf("%s: err %v, want ok=%v", tc.body, err, tc.ok)
			continue
		}
		if err != nil {
			continue
		}
		if req.device != "d" || len(req.items) != 1 || len(req.items[0].util) != 1 {
			t.Errorf("%s: decoded %+v", tc.body, req)
		}
		for c, v := range req.items[0].util {
			if (c != hw.SP && c != hw.Shared) || v != 0.5 {
				t.Errorf("%s: decoded %v=%g", tc.body, c, v)
			}
		}
	}
}

// TestPredictDecodeAllocFree pins the dynamic half of the decoder's
// //gpower:noalloc contract: once a pooled request has grown to the batch,
// decoding a 64-item body again allocates nothing, with or without
// explicit configs.
func TestPredictDecodeAllocFree(t *testing.T) {
	batch := batchBody("GTX Titan X", 64, 16, 21)
	withConfigs := bytes.ReplaceAll(batch, []byte(`}}`),
		[]byte(`},"configs":[{"core_mhz":1000,"mem_mhz":3505},{"core_mhz":1100,"mem_mhz":3505}]}`))
	for _, body := range [][]byte{batch, withConfigs} {
		var req predictRequest
		if err := req.decode(body); err != nil {
			t.Fatalf("warm-up decode: %v", err)
		}
		if len(req.items) != 64 {
			t.Fatalf("decoded %d items, want 64", len(req.items))
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := req.decode(body); err != nil {
				t.Fatalf("warm decode: %v", err)
			}
		})
		if allocs != 0 {
			t.Fatalf("decode allocates %.1f objects per warm 64-item body (configs: %v); want 0",
				allocs, strings.Contains(string(body), "configs"))
		}
	}
}
