package gdl

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"lrcex/internal/faults"
)

// Limits bounds how much work Parse may do on untrusted input. The analysis
// service accepts grammars over the network, so the parser must reject
// adversarial submissions (gigabyte sources, million-production grammars)
// with a typed error *before* the expensive LALR construction runs, not OOM
// halfway through it. The zero value of every field means "unlimited", so
// Parse (used for the embedded, trusted corpus) keeps its historical
// behavior.
type Limits struct {
	// MaxSourceBytes caps len(src); enforced before lexing, so oversized
	// submissions are rejected in O(1).
	MaxSourceBytes int
	// MaxProductions caps the total number of productions (rule
	// alternatives); enforced while parsing, before symbol resolution.
	MaxProductions int
	// MaxSymbols caps the number of *distinct* grammar symbols (terminals +
	// nonterminals); enforced during symbol resolution.
	MaxSymbols int
}

// Limit identifiers for LimitError.Limit.
const (
	LimitSourceBytes = "source bytes"
	LimitProductions = "productions"
	LimitSymbols     = "symbols"
)

// LimitError reports that a source exceeded one of the Limits. It is a typed
// error so callers (the analysis service) can map it onto protocol-level
// responses: an oversized source is "payload too large" (HTTP 413), while a
// structurally oversized grammar is "unprocessable" (HTTP 422).
type LimitError struct {
	Grammar string // grammar name, as passed to Parse
	Limit   string // which limit: LimitSourceBytes, LimitProductions, LimitSymbols
	Max     int    // the configured limit
	Got     int    // the observed value (for source bytes, the full length)
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("%s: grammar exceeds %s limit (%d > %d)", e.Grammar, e.Limit, e.Got, e.Max)
}

// check returns a LimitError when max is set (> 0) and got exceeds it.
func (l Limits) check(name, limit string, max, got int) error {
	if max > 0 && got > max {
		return &LimitError{Grammar: name, Limit: limit, Max: max, Got: got}
	}
	return nil
}

// ParseLimited is Parse with resource limits enforced: source size before
// lexing, production count during parsing, distinct-symbol count during
// resolution. A violated limit yields a *LimitError. The entry carries a
// faults injection point (simulated parser failure under chaos testing);
// it fires after the O(1) size check so injected errors still model a
// parser that accepted the bytes and then failed.
func ParseLimited(name, src string, lim Limits) (g *Grammar, err error) {
	if err := lim.check(name, LimitSourceBytes, lim.MaxSourceBytes, len(src)); err != nil {
		return nil, err
	}
	if err := faults.ErrorAt(faults.GDLParse); err != nil {
		return nil, err
	}
	toks, err := lex(name, src)
	if err != nil {
		return nil, err
	}
	p := &parser{name: name, toks: toks, limits: lim}
	spec, err := p.parseSpec()
	if err != nil {
		return nil, err
	}
	return spec.build()
}

// Fingerprint returns a canonical content hash of a grammar source: the
// SHA-256 of its token stream. Whitespace, comments, and newline placement do
// not affect the hash — except where newline placement affects the parse, see
// below — so trivially reformatted submissions of the same grammar collapse
// onto one fingerprint. This is the cache key of the analysis service,
// computed in O(len(src)) without building any tables. Limits apply as in
// ParseLimited (only MaxSourceBytes is relevant here).
//
// One piece of line structure is parse-relevant and therefore hashed: the
// argument lists of %token/%terminal/%left/%right/%nonassoc are terminated by
// the end of the directive's line, so "%left '+' '-'" and "%left '+'" on one
// line with "'-'" on the next parse differently (the second does not parse at
// all) while their token streams are identical. The hash covers each such
// directive's argument count, so the two cannot collide onto one cache entry
// — the cache is consulted before parsing, and under the old hash it would
// serve the valid grammar's report for the unparseable source (found by the
// metamorphic formatting-churn mutator; see
// TestFingerprintDirectiveLineSensitivity).
func Fingerprint(name, src string, lim Limits) (string, error) {
	if err := lim.check(name, LimitSourceBytes, lim.MaxSourceBytes, len(src)); err != nil {
		return "", err
	}
	// Each token is hashed as it is scanned, through one reused buffer, so
	// the cost is O(len(src)) time and O(1) allocations.
	s := newScanner(name, src)
	h := sha256.New()
	buf := make([]byte, 0, fingerprintBuf)
	for {
		t, err := s.next()
		if err != nil {
			return "", err
		}
		// (kind, len-delimited text): unambiguous framing, so "a b" and
		// "ab" cannot collide. Texts > 255 bytes are still framed by the
		// kind byte + content.
		buf = append(buf, byte(t.kind), byte(len(t.text)))
		buf = append(buf, t.text...)
		if t.kind == tokDirective && lineSensitiveDirective(t.text) {
			n := sameLineArgs(s, t.line)
			buf = append(buf, 0xff, byte(n), byte(n>>8))
		}
		if t.kind == tokEOF {
			h.Write(buf)
			break
		}
		if len(buf) >= fingerprintBuf/2 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	var sum [sha256.Size]byte
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], h.Sum(sum[:0]))
	return string(out[:]), nil
}

// fingerprintBuf is the capacity of Fingerprint's hash input buffer.
const fingerprintBuf = 1024

// sameLineArgs counts the names and literals that follow a directive on its
// line: the argument list the parser will consume. It scans a copy of the
// scanner, so the caller's cursor does not move; a lexical error ends the
// count (the caller's own scan reaches and reports it).
func sameLineArgs(s scanner, line int) int {
	n := 0
	for {
		t, err := s.next()
		if err != nil || (t.kind != tokIdent && t.kind != tokLiteral) || t.line != line {
			return n
		}
		n++
	}
}

// lineSensitiveDirective reports whether the directive's argument list is
// terminated by its line end (so newline placement changes the parse).
// %start and %prec consume exactly one following token regardless of lines.
func lineSensitiveDirective(d string) bool {
	switch d {
	case "token", "terminal", "left", "right", "nonassoc":
		return true
	}
	return false
}
