// Package gdl parses a small yacc/CUP-like grammar definition language into a
// grammar.Grammar. The format:
//
//	// line comments and /* block comments */
//	%token NUM ID            // optional: force names to be terminals
//	%left '+' '-'            // precedence: lowest first, like yacc
//	%right UMINUS
//	%nonassoc '=='
//	%start stmt              // optional: defaults to first rule's LHS
//
//	stmt : IF expr THEN stmt ELSE stmt
//	     | IF expr THEN stmt
//	     ;
//	expr : NUM
//	     | expr '+' expr %prec '+'
//	     |                      // empty alternative
//	     ;
//
// Any name that appears as a rule's left-hand side is a nonterminal; every
// other name and every quoted literal is a terminal. Quoted literals such as
// '+' or ':=' denote terminals whose grammar name is the quoted text.
package gdl

import (
	"fmt"
	"strings"

	"lrcex/internal/grammar"
)

// Grammar is re-exported so the limit API reads naturally.
type Grammar = grammar.Grammar

// Parse builds a grammar from GDL source. The name is used in error messages
// only. Parse applies no resource limits and is meant for trusted, embedded
// sources; use ParseLimited for network input.
func Parse(name, src string) (*grammar.Grammar, error) {
	return ParseLimited(name, src, Limits{})
}

// MustParse is Parse for known-good embedded grammars; it panics on error.
func MustParse(name, src string) *grammar.Grammar {
	g, err := Parse(name, src)
	if err != nil {
		panic(fmt.Sprintf("gdl: parsing embedded grammar %s: %v", name, err))
	}
	return g
}

type tokKind uint8

const (
	tokIdent tokKind = iota
	tokLiteral
	tokColon
	tokPipe
	tokSemi
	tokDirective // %token %left %right %nonassoc %start %prec
	tokEOF
)

type token struct {
	kind tokKind
	text string
	line int
}

// scanner lexes GDL source one token at a time without allocating: the
// token texts are substrings of src. A copy of a scanner is an independent
// cursor, which Fingerprint uses to look ahead.
type scanner struct {
	name string
	src  string
	i    int
	line int
}

func newScanner(name, src string) scanner {
	return scanner{name: name, src: src, line: 1}
}

// next returns the next token, tokEOF (repeatedly) at the end of the source,
// or the lexical error at the cursor.
func (s *scanner) next() (token, error) {
	src := s.src
	for s.i < len(src) {
		i, c := s.i, src[s.i]
		switch {
		case c == '\n':
			s.line++
			s.i++
		case c == ' ' || c == '\t' || c == '\r':
			s.i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for s.i < len(src) && src[s.i] != '\n' {
				s.i++
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			j := strings.Index(src[i+2:], "*/")
			if j < 0 {
				return token{}, fmt.Errorf("%s:%d: unterminated block comment", s.name, s.line)
			}
			s.line += strings.Count(src[i:i+2+j+2], "\n")
			s.i += 2 + j + 2
		case c == ':':
			s.i++
			return token{tokColon, ":", s.line}, nil
		case c == '|':
			s.i++
			return token{tokPipe, "|", s.line}, nil
		case c == ';':
			s.i++
			return token{tokSemi, ";", s.line}, nil
		case c == '%':
			j := i + 1
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			if j == i+1 {
				return token{}, fmt.Errorf("%s:%d: bare %% in input", s.name, s.line)
			}
			s.i = j
			return token{tokDirective, src[i+1 : j], s.line}, nil
		case c == '\'' || c == '"':
			j := i + 1
			for j < len(src) && src[j] != c && src[j] != '\n' {
				j++
			}
			if j >= len(src) || src[j] != c {
				return token{}, fmt.Errorf("%s:%d: unterminated quoted terminal", s.name, s.line)
			}
			if j == i+1 {
				return token{}, fmt.Errorf("%s:%d: empty quoted terminal", s.name, s.line)
			}
			s.i = j + 1
			return token{tokLiteral, src[i+1 : j], s.line}, nil
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			s.i = j
			return token{tokIdent, src[i:j], s.line}, nil
		default:
			return token{}, fmt.Errorf("%s:%d: unexpected character %q", s.name, s.line, string(c))
		}
	}
	return token{tokEOF, "", s.line}, nil
}

// lex returns the whole token stream, ending in tokEOF.
func lex(name, src string) ([]token, error) {
	s := newScanner(name, src)
	var toks []token
	for {
		t, err := s.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '<' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || c == '>' || c == '\'' || c == '.' || (c >= '0' && c <= '9')
}

// spec is the raw parsed form prior to symbol resolution.
type spec struct {
	name       string
	limits     Limits
	tokenDecls []string
	precLevels []precLevel // in declaration order, lowest first
	start      string
	rules      []rule
}

type precLevel struct {
	assoc grammar.Assoc
	names []string
}

type rule struct {
	line int
	lhs  string
	alts []alt
}

type alt struct {
	line     int
	syms     []symRef
	precName string // %prec terminal, or ""
}

type symRef struct {
	name    string
	literal bool // came from a quoted literal: always a terminal
}

type parser struct {
	name   string
	toks   []token
	pos    int
	limits Limits
	prods  int // running production (alternative) count, against limits
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", p.name, line, fmt.Sprintf(format, args...))
}

func (p *parser) parseSpec() (*spec, error) {
	s := &spec{name: p.name, limits: p.limits}
	for {
		t := p.peek()
		switch t.kind {
		case tokEOF:
			if len(s.rules) == 0 {
				return nil, p.errf(t.line, "grammar has no rules")
			}
			return s, nil
		case tokDirective:
			if err := p.parseDirective(s); err != nil {
				return nil, err
			}
		case tokIdent:
			r, err := p.parseRule()
			if err != nil {
				return nil, err
			}
			p.prods += len(r.alts)
			if err := p.limits.check(p.name, LimitProductions, p.limits.MaxProductions, p.prods); err != nil {
				return nil, err
			}
			s.rules = append(s.rules, r)
		default:
			return nil, p.errf(t.line, "expected rule or directive, got %q", t.text)
		}
	}
}

func (p *parser) parseDirective(s *spec) error {
	d := p.next()
	// Directive argument lists are line-terminated, as in yacc: names are
	// consumed only while they sit on the directive's own line.
	sameLine := func() bool {
		t := p.peek()
		return (t.kind == tokIdent || t.kind == tokLiteral) && t.line == d.line
	}
	switch d.text {
	case "token", "terminal":
		for sameLine() {
			s.tokenDecls = append(s.tokenDecls, p.next().text)
		}
	case "left", "right", "nonassoc":
		assoc := map[string]grammar.Assoc{
			"left": grammar.AssocLeft, "right": grammar.AssocRight, "nonassoc": grammar.AssocNone,
		}[d.text]
		lv := precLevel{assoc: assoc}
		for sameLine() {
			lv.names = append(lv.names, p.next().text)
		}
		if len(lv.names) == 0 {
			return p.errf(d.line, "%%%s requires at least one terminal", d.text)
		}
		s.precLevels = append(s.precLevels, lv)
	case "start":
		t := p.next()
		if t.kind != tokIdent {
			return p.errf(d.line, "%%start requires a nonterminal name")
		}
		s.start = t.text
	default:
		return p.errf(d.line, "unknown directive %%%s", d.text)
	}
	return nil
}

func (p *parser) parseRule() (rule, error) {
	lhs := p.next()
	r := rule{line: lhs.line, lhs: lhs.text}
	if t := p.next(); t.kind != tokColon {
		return r, p.errf(t.line, "expected ':' after rule name %q, got %q", lhs.text, t.text)
	}
	for {
		a := alt{line: p.peek().line}
	alt:
		for {
			t := p.peek()
			switch t.kind {
			case tokIdent:
				a.syms = append(a.syms, symRef{name: t.text})
				p.next()
			case tokLiteral:
				a.syms = append(a.syms, symRef{name: t.text, literal: true})
				p.next()
			case tokDirective:
				if t.text != "prec" {
					return r, p.errf(t.line, "unexpected directive %%%s inside rule", t.text)
				}
				p.next()
				pt := p.next()
				if pt.kind != tokIdent && pt.kind != tokLiteral {
					return r, p.errf(t.line, "%%prec requires a terminal name")
				}
				a.precName = pt.text
			default:
				break alt
			}
		}
		r.alts = append(r.alts, a)
		t := p.next()
		switch t.kind {
		case tokPipe:
			continue
		case tokSemi:
			return r, nil
		default:
			return r, p.errf(t.line, "expected '|' or ';' in rule %q, got %q", r.lhs, t.text)
		}
	}
}

func (s *spec) build() (*grammar.Grammar, error) {
	if s.limits.MaxSymbols > 0 {
		distinct := make(map[string]bool)
		for _, r := range s.rules {
			distinct[r.lhs] = true
			for _, a := range r.alts {
				for _, ref := range a.syms {
					distinct[ref.name] = true
				}
			}
		}
		for _, n := range s.tokenDecls {
			distinct[n] = true
		}
		for _, lv := range s.precLevels {
			for _, n := range lv.names {
				distinct[n] = true
			}
		}
		if err := s.limits.check(s.name, LimitSymbols, s.limits.MaxSymbols, len(distinct)); err != nil {
			return nil, err
		}
	}
	b := grammar.NewBuilder()
	nonterm := make(map[string]bool, len(s.rules))
	for _, r := range s.rules {
		nonterm[r.lhs] = true
	}
	for _, n := range s.tokenDecls {
		if nonterm[n] {
			return nil, fmt.Errorf("%s: %%token %s also appears as a rule LHS", s.name, n)
		}
	}

	symOf := func(ref symRef) grammar.Sym {
		if !ref.literal && nonterm[ref.name] {
			return b.Nonterminal(ref.name)
		}
		return b.Terminal(ref.name)
	}

	// Declare terminals & precedence first so SetPrec sees terminals.
	for _, n := range s.tokenDecls {
		b.Terminal(n)
	}
	for lvl, lv := range s.precLevels {
		for _, n := range lv.names {
			if nonterm[n] {
				return nil, fmt.Errorf("%s: precedence declared for nonterminal %s", s.name, n)
			}
			b.SetPrec(b.Terminal(n), lvl+1, lv.assoc)
		}
	}
	if s.start != "" {
		if !nonterm[s.start] {
			return nil, fmt.Errorf("%s: %%start %s is not a rule LHS", s.name, s.start)
		}
		b.SetStart(b.Nonterminal(s.start))
	}

	for _, r := range s.rules {
		lhs := b.Nonterminal(r.lhs)
		for _, a := range r.alts {
			rhs := make([]grammar.Sym, len(a.syms))
			for i, ref := range a.syms {
				rhs[i] = symOf(ref)
			}
			precSym := grammar.NoSym
			if a.precName != "" {
				if nonterm[a.precName] {
					return nil, fmt.Errorf("%s:%d: %%prec %s is a nonterminal", s.name, a.line, a.precName)
				}
				precSym = b.Terminal(a.precName)
			}
			b.Add(lhs, rhs, precSym)
		}
	}
	return b.Build()
}
