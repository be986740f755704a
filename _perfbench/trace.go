package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation share
// Req; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// Replay marks a span timed by calling the layer again on the same
	// inputs rather than inside its parent's interval; self time
	// subtracts such children by duration.
	Replay bool `json:"replay,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the whole run; write saves them once the
// run ends. A nil *tracer records nothing, so untraced runs pay one nil
// check per span site.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	lastID int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// reserve returns a fresh span ID, for a parent recorded after its
// children.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastID++
	return t.lastID
}

// record stores the span with a reserved ID.
func (t *tracer) record(id, req, parent int64, name string, start, end time.Time, replay bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Replay: replay,
	})
}

// add records a span and returns its ID.
func (t *tracer) add(req, parent int64, name string, start, end time.Time, replay bool) int64 {
	id := t.reserve()
	t.record(id, req, parent, name, start, end, replay)
	return id
}

// selfTimes returns, per span name, the self time of each span that has
// children and passes keep: its duration minus the part its children
// account for. Children nested inside the parent's interval are subtracted
// by the interval they cover; replayed children by their duration.
func (t *tracer) selfTimes(keep func(*span) bool) map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]*span)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]time.Duration)
	for i := range t.spans {
		s := &t.spans[i]
		if kids := children[s.ID]; len(kids) > 0 && keep(s) {
			out[s.Name] = append(out[s.Name], s.dur()-covered(s, kids))
		}
	}
	return out
}

// covered is how much of parent the children account for: the union of
// the nested children's intervals clipped to the parent, plus the
// durations of replayed children.
func covered(parent *span, kids []*span) time.Duration {
	var replayed time.Duration
	var iv [][2]int64
	for _, k := range kids {
		if k.Replay {
			replayed += k.dur()
			continue
		}
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	// Union of intervals: sort by start, merge overlaps.
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var union int64
	var curLo, curHi int64 = 0, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				union += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		union += curHi - curLo
	}
	return time.Duration(union) + replayed
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.spans[i].dur())
		}
	}
	return out
}

// write saves every span as one JSON object per line under dir and
// returns the file's path.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// us converts durations to microseconds.
func us(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(time.Microsecond)
	}
	return out
}
