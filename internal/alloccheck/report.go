package alloccheck

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"path/filepath"
	"strings"
)

// relPath shortens name relative to base for readable, stable reports
// (mirrors internal/lint/report.go).
func relPath(base, name string) string {
	if base == "" {
		return name
	}
	if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}

func fmtPos(base string, pos token.Position) string {
	return fmt.Sprintf("%s:%d:%d", relPath(base, pos.Filename), pos.Line, pos.Column)
}

// renderSite prints one finding, following the propagation chain of
// call-shaped sites down to the direct allocation that seeds it.
func renderSite(base string, s *Site) string {
	msg := s.Msg
	for u, depth := s.Underlying, 0; u != nil && depth < 8; u, depth = u.Underlying, depth+1 {
		msg += fmt.Sprintf(" <- %s: [%s] %s", fmtPos(base, u.Pos), u.Cat, u.Msg)
	}
	return msg
}

// WriteText renders a proof run in the position-ordered text form: one line
// per root, indented findings for unproven roots, directive errors, and a
// closing summary. Two runs over the same tree are byte-identical.
func (r *Result) WriteText(w io.Writer, base string) error {
	for i := range r.Roots {
		rr := &r.Roots[i]
		if rr.Proven {
			if _, err := fmt.Fprintf(w, "%s: root %s: proven allocation-free (%d functions, %d escape hatches)\n",
				fmtPos(base, rr.Pos), rr.Func, rr.Functions, rr.Hatches); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s: root %s: NOT proven (%d findings)\n",
			fmtPos(base, rr.Pos), rr.Func, len(rr.Findings)); err != nil {
			return err
		}
		for j := range rr.Findings {
			s := &rr.Findings[j]
			if _, err := fmt.Fprintf(w, "\t%s: [%s] %s\n",
				fmtPos(base, s.Pos), s.Cat, renderSite(base, s)); err != nil {
				return err
			}
		}
	}
	for _, e := range r.DirectiveErrors {
		if _, err := fmt.Fprintf(w, "%s\n", relErrPath(base, e)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "alloccheck: %d roots, %d proven, %d escape hatches, %d functions walked\n",
		r.RootCount, r.ProvenCount, r.HatchesUsed, r.FunctionsWalked)
	return err
}

// relErrPath rewrites the leading file path of a "file:line:col: msg"
// directive error relative to base.
func relErrPath(base, e string) string {
	i := strings.Index(e, ": ")
	if i < 0 {
		return e
	}
	head, tail := e[:i], e[i:]
	parts := strings.Split(head, ":")
	if len(parts) < 3 {
		return e
	}
	file := strings.Join(parts[:len(parts)-2], ":")
	return relPath(base, file) + ":" + parts[len(parts)-2] + ":" + parts[len(parts)-1] + tail
}

// jsonPosition is the wire form of a token.Position.
type jsonPosition struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
}

type jsonSite struct {
	Category   Category     `json:"category"`
	Pos        jsonPosition `json:"pos"`
	Message    string       `json:"message"`
	Callee     string       `json:"callee,omitempty"`
	Underlying *jsonSite    `json:"underlying,omitempty"`
}

type jsonRoot struct {
	Func      string       `json:"func"`
	Pos       jsonPosition `json:"pos"`
	Proven    bool         `json:"proven"`
	Functions int          `json:"functions"`
	Hatches   int          `json:"hatches"`
	Findings  []jsonSite   `json:"findings"`
}

type jsonResult struct {
	Roots           []jsonRoot `json:"roots"`
	DirectiveErrors []string   `json:"directive_errors"`
	RootCount       int        `json:"root_count"`
	ProvenCount     int        `json:"proven_count"`
	HatchesUsed     int        `json:"hatches_used"`
	FunctionsWalked int        `json:"functions_walked"`
}

func toJSONPos(base string, pos token.Position) jsonPosition {
	return jsonPosition{File: relPath(base, pos.Filename), Line: pos.Line, Column: pos.Column}
}

func toJSONSite(base string, s *Site, depth int) jsonSite {
	js := jsonSite{
		Category: s.Cat,
		Pos:      toJSONPos(base, s.Pos),
		Message:  s.Msg,
		Callee:   s.Callee,
	}
	if s.Underlying != nil && depth < 8 {
		u := toJSONSite(base, s.Underlying, depth+1)
		js.Underlying = &u
	}
	return js
}

// WriteJSON renders a proof run as indented JSON with paths relative to
// base; slices are always present (never null) so consumers can index
// without nil checks.
func (r *Result) WriteJSON(w io.Writer, base string) error {
	out := jsonResult{
		Roots:           []jsonRoot{},
		DirectiveErrors: r.DirectiveErrors,
		RootCount:       r.RootCount,
		ProvenCount:     r.ProvenCount,
		HatchesUsed:     r.HatchesUsed,
		FunctionsWalked: r.FunctionsWalked,
	}
	if out.DirectiveErrors == nil {
		out.DirectiveErrors = []string{}
	} else {
		rel := make([]string, len(out.DirectiveErrors))
		for i, e := range out.DirectiveErrors {
			rel[i] = relErrPath(base, e)
		}
		out.DirectiveErrors = rel
	}
	for i := range r.Roots {
		rr := &r.Roots[i]
		jr := jsonRoot{
			Func:      rr.Func,
			Pos:       toJSONPos(base, rr.Pos),
			Proven:    rr.Proven,
			Functions: rr.Functions,
			Hatches:   rr.Hatches,
			Findings:  []jsonSite{},
		}
		for j := range rr.Findings {
			jr.Findings = append(jr.Findings, toJSONSite(base, &rr.Findings[j], 0))
		}
		out.Roots = append(out.Roots, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
