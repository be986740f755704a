package serve

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"testing"

	"gpupower/internal/core"
	"gpupower/internal/hw"
	"gpupower/internal/registry"
)

// batchBody renders a predict-batch-shaped /v1/predict body: items
// full-ladder items, each one of vectors seeded utilization vectors with
// four-decimal levels, in canonical component order.
func batchBody(device string, items, vectors int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	vecs := make([]core.Utilization, vectors)
	for i := range vecs {
		u := core.Utilization{}
		for _, c := range hw.Components {
			if r.Float64() < 0.7 {
				u[c] = math.Round((0.05+0.6*r.Float64())*1e4) / 1e4
			}
		}
		if len(u) == 0 {
			u[hw.SP] = 0.5
		}
		vecs[i] = u
	}
	b := []byte(`{"device":`)
	b = strconv.AppendQuote(b, device)
	b = append(b, `,"items":[`...)
	for i := 0; i < items; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"utilization":{`...)
		u := vecs[r.Intn(vectors)]
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
		b = append(b, `}}`...)
	}
	return append(b, `]}`...)
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status code and the body length.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// rewindBody is a request body that can be replayed without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// BenchmarkPredictHandler times the /v1/predict handler alone, without the
// network, on the predict-batch shape: 64 full-ladder items on GTX Titan X
// drawn from 16 utilization vectors, with the surface cache hot.
func BenchmarkPredictHandler(b *testing.B) {
	dev := hw.GTXTitanX()
	e, err := registry.NewEntry(dev.Name, dev, nil, nil, testModel(b, dev, 40), registry.FitMeta{Source: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	reg := registry.New()
	if err := reg.Add(e); err != nil {
		b.Fatal(err)
	}
	srv := New(reg, nil)
	body := batchBody(dev.Name, 64, 16, 21)
	r, err := http.NewRequest(http.MethodPost, "/v1/predict", nil)
	if err != nil {
		b.Fatal(err)
	}
	rb := &rewindBody{}
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		rb.Reset(body)
		r.Body = rb
		w.code, w.n = http.StatusOK, 0
		srv.ServeHTTP(w, r)
	}
	serve() // fills the surface cache
	if w.code != http.StatusOK {
		b.Fatalf("HTTP %d", w.code)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
