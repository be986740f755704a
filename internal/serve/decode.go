// Request decoding for the serving endpoints (DESIGN.md §11.2).
//
// A /v1/predict body has one fixed shape,
//
//	{"device": "GTX Titan X", "items": [
//	    {"utilization": {"SP": 0.8, "DRAM": 0.4},
//	     "configs": [{"core_mhz": 1000, "mem_mhz": 3505}]}]}
//
// and decoding it through encoding/json cost more than the predictions it
// asked for. predictRequest.decode scans that shape straight into pooled
// storage. It accepts and rejects what json.Decoder with
// DisallowUnknownFields does for that shape:
//
//   - a key matches its field by bytes.EqualFold after unescaping, as
//     encoding/json matches struct fields; a component name matches ASCII
//     case-insensitively, so "ſhared" is not "Shared";
//   - null leaves a field unset, and a null component level is 0;
//   - a number follows the JSON grammar and is then parsed by
//     strconv.ParseFloat, so an out-of-range number is an error;
//   - a string with a backslash or a byte ≥ 0x80 is unquoted by
//     json.Unmarshal, which keeps escapes and invalid UTF-8 exact off the
//     fast path;
//   - bytes after the top-level value are ignored, as Decoder.Decode
//     ignores them.
//
// It is stricter in one way: a repeated key is an error — an envelope
// field named twice, or a component named twice in any case. encoding/json
// keeps whichever it meets last, and for components that was map order,
// so identical requests could get different watts. FuzzPredictDecode holds
// the decoder to this contract against encoding/json.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"

	"gpupower/internal/core"
	"gpupower/internal/hw"
)

// predictItem is one decoded /v1/predict item.
type predictItem struct {
	util core.Utilization
	// configs are the ladder points to predict at; empty means the full
	// ladder in dev.Ladder() order.
	configs []hw.Config
}

// predictRequest is a decoded /v1/predict body. A pooled request keeps
// its storage: decode clears and refills the item maps and slices.
type predictRequest struct {
	device string
	items  []predictItem

	// lastDevice is the previous device string, reused while requests
	// keep naming the same device.
	lastDevice string
}

// decode decodes body into req, reusing req's storage.
//
//gpower:noalloc warm requests refill pooled maps and slices; only growth, new device names, escaped strings and errors allocate
func (req *predictRequest) decode(body []byte) error {
	s := scanner{data: body}
	req.device = ""
	req.items = req.items[:0]
	if ok, err := s.begin('{', "expected request object"); !ok {
		return err
	}
	var seen uint8
	for first := true; ; first = false {
		k, ok, err := s.member(first)
		if !ok {
			return err
		}
		switch {
		case fieldIs(k, "device"):
			if err := s.once(&seen, 1, "device"); err != nil {
				return err
			}
			if s.null() {
				continue
			}
			v, err := s.str()
			if err != nil {
				return err
			}
			req.device = req.intern(v)
		case fieldIs(k, "items"):
			if err := s.once(&seen, 2, "items"); err != nil {
				return err
			}
			if err := req.decodeItems(&s); err != nil {
				return err
			}
		default:
			return unknownField(k)
		}
	}
}

// intern returns v as a string, reusing the previous request's device
// string when the bytes match.
func (req *predictRequest) intern(v []byte) string {
	//gpower:allocs a string(bytes) comparison converts without allocating
	if string(v) != req.lastDevice {
		req.lastDevice = string(v) //gpower:allocs once per change of device name on this pooled request
	}
	return req.lastDevice
}

func (req *predictRequest) decodeItems(s *scanner) error {
	if ok, err := s.begin('[', "expected items array"); !ok {
		return err
	}
	for first := true; ; first = false {
		more, err := s.more(']', first)
		if err != nil || !more {
			return err
		}
		it := req.nextItem()
		if err := it.decode(s); err != nil {
			return itemError(len(req.items)-1, err)
		}
	}
}

// nextItem appends a cleared item, reusing the pooled map and slice at
// that index when there is one.
func (req *predictRequest) nextItem() *predictItem {
	n := len(req.items)
	if n == cap(req.items) {
		req.items = append(req.items, predictItem{}) //gpower:allocs pool growth: the item slice grows to the largest batch once
	}
	req.items = req.items[:n+1]
	it := &req.items[n]
	if it.util == nil {
		it.util = make(core.Utilization, len(hw.Components)) //gpower:allocs pool growth: each pooled item makes its map once
	}
	clear(it.util)
	it.configs = it.configs[:0]
	return it
}

func (it *predictItem) decode(s *scanner) error {
	if ok, err := s.begin('{', "expected item object"); !ok {
		return err
	}
	var seen uint8
	for first := true; ; first = false {
		k, ok, err := s.member(first)
		if !ok {
			return err
		}
		switch {
		case fieldIs(k, "utilization"):
			if err := s.once(&seen, 1, "utilization"); err != nil {
				return err
			}
			if err := s.utilization(it.util); err != nil {
				return err
			}
		case fieldIs(k, "configs"):
			if err := s.once(&seen, 2, "configs"); err != nil {
				return err
			}
			if err := it.decodeConfigs(s); err != nil {
				return err
			}
		default:
			return unknownField(k)
		}
	}
}

func (it *predictItem) decodeConfigs(s *scanner) error {
	if ok, err := s.begin('[', "expected configs array"); !ok {
		return err
	}
	for first := true; ; first = false {
		more, err := s.more(']', first)
		if err != nil || !more {
			return err
		}
		var c hw.Config
		if err := s.config(&c); err != nil {
			return err
		}
		it.configs = append(it.configs, c) //gpower:allocs pool growth: each pooled item's config slice grows to its largest list once
	}
}

// config reads a {"core_mhz", "mem_mhz"} object into c.
func (s *scanner) config(c *hw.Config) error {
	if ok, err := s.begin('{', "expected config object"); !ok {
		return err
	}
	var seen uint8
	for first := true; ; first = false {
		k, ok, err := s.member(first)
		if !ok {
			return err
		}
		switch {
		case fieldIs(k, "core_mhz"):
			err = s.numberField(&seen, 1, "core_mhz", &c.CoreMHz)
		case fieldIs(k, "mem_mhz"):
			err = s.numberField(&seen, 2, "mem_mhz", &c.MemMHz)
		default:
			return unknownField(k)
		}
		if err != nil {
			return err
		}
	}
}

// numberField reads the value of a number field into dst; null leaves
// dst unset.
func (s *scanner) numberField(seen *uint8, bit uint8, field string, dst *float64) error {
	if err := s.once(seen, bit, field); err != nil {
		return err
	}
	if s.null() {
		return nil
	}
	v, err := s.number()
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// wireUtilization is a utilization vector as a JSON field. /v1/govern and
// /v1/breakdown decode theirs with the scanner /v1/predict items use, so
// every endpoint reads utilization by the same rules.
type wireUtilization core.Utilization

// UnmarshalJSON decodes a utilization object; null is the empty vector.
func (w *wireUtilization) UnmarshalJSON(b []byte) error {
	u := core.Utilization{}
	s := scanner{data: b}
	if err := s.utilization(u); err != nil {
		return err
	}
	*w = wireUtilization(u)
	return nil
}

// utilization reads a component → level object into u, which the caller
// has cleared. Missing components read as zero, a null level is 0, and a
// level must be non-negative (JSON numbers are finite, and out-of-range
// ones are already errors). A component named twice is an error.
func (s *scanner) utilization(u core.Utilization) error {
	if ok, err := s.begin('{', "expected utilization object"); !ok {
		return err
	}
	var seen uint8
	for first := true; ; first = false {
		k, ok, err := s.member(first)
		if !ok {
			return err
		}
		c, ok := parseComponent(k)
		if !ok {
			return unknownComponent(k)
		}
		if seen&(1<<c) != 0 {
			return repeatedComponent(c)
		}
		seen |= 1 << c
		var v float64
		if !s.null() {
			if v, err = s.number(); err != nil {
				return err
			}
			if v < 0 {
				return negativeLevel(c, v)
			}
		}
		u[c] = v //gpower:allocs a cleared pooled map refills its buckets in place
	}
}

// componentNames are the wire names of hw.Components, by component, so
// parsing never calls Component.String, whose fallback formats.
var componentNames = func() (names [hw.DRAM + 1]string) {
	for _, c := range hw.Components {
		names[c] = c.String()
	}
	return names
}()

// parseComponent maps a wire component name ("SP", "DRAM", ...) to the
// hw.Component, ASCII case-insensitively.
func parseComponent(name []byte) (hw.Component, bool) {
	for _, c := range hw.Components {
		if equalFold(name, componentNames[c]) {
			return c, true
		}
	}
	return 0, false
}

// fieldIs reports whether object key k names field, by bytes.EqualFold as
// encoding/json matches struct fields. ASCII keys fold in place.
func fieldIs(k []byte, field string) bool {
	if equalFold(k, field) {
		return true
	}
	for _, c := range k {
		if c >= utf8.RuneSelf {
			return bytes.EqualFold(k, []byte(field)) //gpower:allocs cold path: non-ASCII keys fold by Unicode rules
		}
	}
	return false
}

// equalFold is bytes.EqualFold restricted to ASCII.
func equalFold(a []byte, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// scanner reads JSON tokens from data, starting at off.
type scanner struct {
	data []byte
	off  int
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (s *scanner) peek() byte {
	for ; s.off < len(s.data); s.off++ {
		switch c := s.data[s.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// consume consumes c if it is the next non-space byte.
func (s *scanner) consume(c byte) bool {
	if s.peek() == c {
		s.off++
		return true
	}
	return false
}

func (s *scanner) expect(c byte, msg string) error {
	if s.consume(c) {
		return nil
	}
	return s.fail(msg)
}

// null consumes a null literal if one comes next. A value that merely
// starts with "null" is left to the caller's next token check to reject.
func (s *scanner) null() bool {
	if s.peek() != 'n' || len(s.data)-s.off < 4 {
		return false
	}
	d := s.data[s.off:]
	if d[1] != 'u' || d[2] != 'l' || d[3] != 'l' {
		return false
	}
	s.off += 4
	return true
}

// begin consumes a null, reporting false, or else the open byte of an
// object or array, reporting true (with an error if it is missing).
func (s *scanner) begin(open byte, msg string) (bool, error) {
	if s.null() {
		return false, nil
	}
	if err := s.expect(open, msg); err != nil {
		return false, err
	}
	return true, nil
}

// member reads the next key of an object, and the colon after it. It
// reports false at the closing brace or on an error.
func (s *scanner) member(first bool) ([]byte, bool, error) {
	more, err := s.more('}', first)
	if err != nil || !more {
		return nil, false, err
	}
	k, err := s.str()
	if err != nil {
		return nil, false, err
	}
	if err := s.expect(':', "expected ':' after object key"); err != nil {
		return nil, false, err
	}
	return k, true, nil
}

// more reports whether another member or element follows in the object
// or array that end closes. It consumes the comma before every member but
// the first, or the closing end.
func (s *scanner) more(end byte, first bool) (bool, error) {
	if s.consume(end) {
		return false, nil
	}
	if first || s.consume(',') {
		return true, nil
	}
	if end == ']' {
		return false, s.fail("expected ',' or ']'")
	}
	return false, s.fail("expected ',' or '}'")
}

// once marks bit in an object's seen set, failing if the object already
// named the field.
func (s *scanner) once(seen *uint8, bit uint8, field string) error {
	if *seen&bit != 0 {
		return s.fail("repeated field \"" + field + "\"") //gpower:allocs error path: a repeated key is answered with a 400
	}
	*seen |= bit
	return nil
}

// str reads a string token and returns its text. A string of plain ASCII
// without escapes is returned in place; any other is unquoted by
// encoding/json into a new slice.
func (s *scanner) str() ([]byte, error) {
	if s.peek() != '"' {
		return nil, s.fail("expected string")
	}
	start := s.off
	plain := true
	for s.off++; s.off < len(s.data); {
		switch c := s.data[s.off]; {
		case c == '"':
			s.off++
			if plain {
				return s.data[start+1 : s.off-1], nil
			}
			return unquote(s.data[start:s.off]) //gpower:allocs cold path: escaped or non-ASCII strings unquote through encoding/json
		case c == '\\':
			plain = false
			s.off += 2
		case c < 0x20:
			return nil, s.fail("control character in string")
		default:
			plain = plain && c < utf8.RuneSelf
			s.off++
		}
	}
	return nil, s.fail("unterminated string")
}

// unquote decodes a quoted string token the way encoding/json does.
func unquote(tok []byte) ([]byte, error) {
	var v string
	if err := json.Unmarshal(tok, &v); err != nil {
		return nil, err
	}
	return []byte(v), nil
}

// number reads a number token by the JSON grammar and parses it as
// encoding/json does.
func (s *scanner) number() (float64, error) {
	s.peek() // skips whitespace
	start := s.off
	if s.at('-') {
		s.off++
	}
	switch {
	case s.at('0'):
		s.off++
	case s.off < len(s.data) && '1' <= s.data[s.off] && s.data[s.off] <= '9':
		s.digits()
	default:
		return 0, s.fail("expected number")
	}
	if s.at('.') {
		s.off++
		if !s.digits() {
			return 0, s.fail("expected digit after decimal point")
		}
	}
	if s.at('e') || s.at('E') {
		s.off++
		if s.at('+') || s.at('-') {
			s.off++
		}
		if !s.digits() {
			return 0, s.fail("expected digit in exponent")
		}
	}
	//gpower:allocs a short number converts into a stack buffer, and strconv.ParseFloat allocates only its error
	v, err := strconv.ParseFloat(string(s.data[start:s.off]), 64)
	if err != nil {
		return 0, s.fail("number out of range")
	}
	return v, nil
}

// at reports whether the byte at the offset is c.
func (s *scanner) at(c byte) bool { return s.off < len(s.data) && s.data[s.off] == c }

// digits consumes a run of decimal digits, reporting whether there was one.
func (s *scanner) digits() bool {
	start := s.off
	for s.off < len(s.data) && '0' <= s.data[s.off] && s.data[s.off] <= '9' {
		s.off++
	}
	return s.off > start
}

// decodeError is a malformed request body: what was wrong, and where.
type decodeError struct {
	msg string
	off int
}

func (e *decodeError) Error() string { return fmt.Sprintf("%s at offset %d", e.msg, e.off) }

func (s *scanner) fail(msg string) error {
	return &decodeError{msg: msg, off: s.off} //gpower:allocs error path: a malformed body is answered with a 400
}

// The errors below reject a well-formed body; they allocate only on that
// path.

func unknownField(k []byte) error {
	return fmt.Errorf("unknown field %q", k) //gpower:allocs error path: an unknown field is answered with a 400
}

func unknownComponent(k []byte) error {
	//gpower:allocs error path: an unknown component is answered with a 400
	return fmt.Errorf("unknown component %q (want one of INT, SP, DP, SF, Shared, L2, DRAM)", k)
}

func repeatedComponent(c hw.Component) error {
	return fmt.Errorf("component %s named twice", componentNames[c]) //gpower:allocs error path: a repeated component is answered with a 400
}

func negativeLevel(c hw.Component, v float64) error {
	//gpower:allocs error path: a negative level is answered with a 400
	return fmt.Errorf("utilization %s = %g must be finite and non-negative", componentNames[c], v)
}

func itemError(i int, err error) error {
	return fmt.Errorf("items[%d]: %w", i, err) //gpower:allocs error path: a bad item is answered with a 400
}
