package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxConns is the generator's connection and goroutine budget: the
// container's CPU count, so the generator never has more threads busy than
// the machine has CPUs, and the server keeps its own share.
const maxConns = 2

// httpConn is a keep-alive HTTP/1.1 client connection that speaks only
// what the benchmark needs: pre-encoded requests out, Content-Length
// responses in. It decodes no JSON and allocates nothing per request once
// its body buffer has grown, so the generator's CPU cost stays small next
// to the server's.
type httpConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func newConn(addr string) *httpConn { return &httpConn{addr: addr} }

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

// encodeRequest renders a complete POST request with the given body.
func encodeRequest(path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: gpowerd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	b.Write(body)
	return b.Bytes()
}

var errNoLength = errors.New("response without Content-Length")

// roundTrip sends one request and reads its response. The returned body
// aliases the connection's buffer and is valid until the next call. Any
// error closes the connection; the next call redials.
func (h *httpConn) roundTrip(req []byte) (int, []byte, error) {
	if h.c == nil {
		c, err := net.Dial("tcp", h.addr)
		if err != nil {
			return 0, nil, err
		}
		h.c, h.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	status, body, err := h.exchange(req)
	if err != nil {
		h.close()
	}
	return status, body, err
}

func (h *httpConn) exchange(req []byte) (int, []byte, error) {
	if _, err := h.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length := -1
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		const cl = "content-length:"
		if len(line) > len(cl) && bytes.EqualFold(line[:len(cl)], []byte(cl)) {
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(cl):])))
			if err != nil {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", line)
			}
		}
	}
	if length < 0 {
		return 0, nil, errNoLength
	}
	if cap(h.body) < length {
		h.body = make([]byte, length)
	}
	h.body = h.body[:length]
	if _, err := io.ReadFull(h.br, h.body); err != nil {
		return 0, nil, err
	}
	return status, h.body, nil
}

// sample is one request of an open-loop phase, timed from the phase start.
type sample struct {
	due, sent, done time.Duration
	status          int
	sentOK          bool // false when the phase ended before it was sent
	err             error
}

// latency is the request's latency measured from when it was due, so a
// stall charges every request that waited behind it.
func (s *sample) latency() time.Duration { return s.done - s.due }

// lag is how late the generator sent the request.
func (s *sample) lag() time.Duration { return s.sent - s.due }

// phase is one open-loop run: n requests due at a fixed rate.
type phase struct {
	start   time.Time
	samples []sample
}

// runOpenLoop sends n requests due at start + i/rate over the connections,
// each connection taking the next due request as soon as it is free. The
// schedule never waits for the server, so a slow server builds a backlog
// whose wait the latencies include. Requests not sent by stopAfter are
// left unsent. onResp sees every response (from the connection
// goroutines, concurrently, each i once) and reports whether it is
// correct; a response it rejects counts as an error.
func runOpenLoop(conns []*httpConn, rate float64, n int, stopAfter time.Duration,
	request func(i int) []byte, onResp func(i, status int, body []byte) error) *phase {
	p := &phase{samples: make([]sample, n)}
	interval := float64(time.Second) / rate
	p.start = time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *httpConn) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &p.samples[i]
				s.due = time.Duration(float64(i) * interval)
				if time.Since(p.start) > stopAfter {
					continue
				}
				waitUntil(p.start.Add(s.due))
				s.sent = time.Since(p.start)
				status, body, err := c.roundTrip(request(i))
				if err == nil {
					err = onResp(i, status, body)
				}
				s.done = time.Since(p.start)
				s.status, s.err, s.sentOK = status, err, true
			}
		}(c)
	}
	wg.Wait()
	return p
}

// waitUntil blocks until t. time.Sleep rounds up to about a millisecond
// here, which would add that much generator lag to every request at
// sub-millisecond intervals, so it sleeps in nanosleep (about 60 µs of
// timer slack) and spins only for the last stretch.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 100*time.Microsecond {
			ts := syscall.NsecToTimespec(int64(d - 80*time.Microsecond))
			_ = syscall.Nanosleep(&ts, nil) // EINTR just re-enters the loop
			continue
		}
		runtime.Gosched()
	}
}

// phaseStats summarises a phase.
type phaseStats struct {
	sent, ok, errors int
	latMs, lagMs     []float64
	rate             float64 // completed requests per second of the phase's span
}

func (p *phase) stats() phaseStats {
	var st phaseStats
	var last time.Duration
	for i := range p.samples {
		s := &p.samples[i]
		if !s.sentOK {
			continue
		}
		st.sent++
		if s.err != nil || s.status != 200 {
			st.errors++
			continue
		}
		st.ok++
		st.latMs = append(st.latMs, float64(s.latency())/float64(time.Millisecond))
		st.lagMs = append(st.lagMs, float64(s.lag())/float64(time.Millisecond))
		if s.done > last {
			last = s.done
		}
	}
	if last > 0 && st.ok > 0 {
		st.rate = float64(st.ok) / last.Seconds()
	}
	return st
}

// ladder is a fixed geometric ladder of offered rates: rung k offers
// base·ratio^k requests per second. It is fixed per workload so that two
// commits are probed at the same rates.
type ladder struct {
	base, ratio float64
	rungs       int
	limit       time.Duration // p99 latency limit, measured from due time
}

func (l ladder) rate(k int) float64 {
	r := l.base
	for i := 0; i < k; i++ {
		r *= l.ratio
	}
	return r
}

// probes is how many rungs a binary search over the ladder visits.
func (l ladder) probes() int {
	n := 0
	for span := l.rungs + 1; span > 1; span = (span + 1) / 2 {
		n++
	}
	return n
}

// search finds the highest rung whose probe passes: every request sent,
// none failed, p99 latency under the limit (which also rules out a growing
// backlog, since latency counts from the due time). A failed probe is run
// once more before the rung counts as failed, so one stall of the shared
// machine does not halve the search range. It returns the completion rate
// measured at the best rung, or at the lowest rung if none passes.
func (l ladder) search(probe func(rate float64) *phase) float64 {
	lo, hi := -1, l.rungs
	best := 0.0
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		var st phaseStats
		pass := false
		for try := 0; try < 2 && !pass; try++ {
			p := probe(l.rate(mid))
			st = p.stats()
			pass = st.sent == len(p.samples) && st.errors == 0 && len(st.latMs) > 0 &&
				percentile(st.latMs, 99) <= float64(l.limit)/float64(time.Millisecond)
			fmt.Fprintf(os.Stderr, "perfbench: probe %.0f/s: %d of %d sent, %d failed, p99 %.2f ms, %.0f/s completed\n",
				l.rate(mid), st.sent, len(p.samples), st.errors, percentile(st.latMs, 99), st.rate)
		}
		if pass {
			lo, best = mid, st.rate
		} else {
			hi = mid
			if best == 0 && mid == 0 {
				best = st.rate
			}
		}
	}
	return best
}
