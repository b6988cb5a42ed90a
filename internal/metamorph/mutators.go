package metamorph

import (
	"fmt"
	"sort"
	"strings"

	"lrcex/internal/gdl"
	"lrcex/internal/grammar"
)

// The mutator catalog. Formatting mutators rewrite GDL source below the
// token level; the rest rewrite the grammar through the IR so symbol ids (and
// hence automaton coordinates) stay aligned with the original.
var (
	// WSChurn rewrites whitespace only: horizontal runs are resized and
	// retyped, blank lines inserted. The token stream — and therefore
	// gdl.Fingerprint — must not change. Newlines are never inserted
	// mid-line: GDL's %token/%left/... argument lists are line-terminated,
	// so splitting a line is a parse change, not formatting (a distinction
	// the fingerprint itself once got wrong; see TestFingerprintDirectiveLineSensitivity).
	WSChurn = Mutator{Name: "ws-churn", Class: Formatting, apply: applyWSChurn}
	// CommentChurn inserts line and single-line block comments between
	// tokens; same invariant as WSChurn.
	CommentChurn = Mutator{Name: "comment-churn", Class: Formatting, apply: applyCommentChurn}
	// RenameSymbols gives every user symbol a fresh positional name. The
	// automaton is untouched, so conflicts, canonical reports (which
	// name-normalize), and search stats must be identical.
	RenameSymbols = Mutator{Name: "rename-symbols", Class: Equivalent, apply: applyRenameSymbols}
	// PrecGaps applies an order- and equality-preserving affine map to all
	// precedence levels (l -> l*stretch + offset). resolveSR only compares
	// levels relatively and tests for zero, so every resolution decision is
	// unchanged.
	PrecGaps = Mutator{Name: "prec-gaps", Class: Equivalent, apply: applyPrecGaps}
	// ReorderProds permutes the production list. The language and the
	// conflict structure are preserved, but production ids — and with them
	// state numbering and discovery order — shift, so only aggregate
	// comparisons apply.
	ReorderProds = Mutator{Name: "reorder-prods", Class: ConflictsPreserved, apply: applyReorderProds}
	// DropPrec removes one terminal's precedence declaration (and
	// re-densifies the remaining levels), typically resurrecting
	// shift/reduce conflicts the declaration used to resolve.
	DropPrec = Mutator{Name: "drop-prec", Class: Perturbing, apply: applyDropPrec}
	// DupProd duplicates one production verbatim, manufacturing a
	// reduce/reduce ambiguity on its LHS.
	DupProd = Mutator{Name: "dup-prod", Class: Perturbing, apply: applyDupProd}
	// UnfoldNonterm expands one nonterminal occurrence one level, replacing
	// the host production with one copy per alternative. Language-preserving
	// but automaton-changing.
	UnfoldNonterm = Mutator{Name: "unfold-nonterm", Class: Perturbing, apply: applyUnfoldNonterm}
	// SwapAssoc flips the associativity of one precedence level
	// (left<->right, nonassoc->left), changing how same-level shift/reduce
	// conflicts resolve.
	SwapAssoc = Mutator{Name: "swap-assoc", Class: Perturbing, apply: applySwapAssoc}
)

// --- formatting mutators -------------------------------------------------

func applyWSChurn(in Input, rng *RNG) (*Mutant, error) {
	return churnMutant(in, rng, false)
}

func applyCommentChurn(in Input, rng *RNG) (*Mutant, error) {
	return churnMutant(in, rng, true)
}

func churnMutant(in Input, rng *RNG, comments bool) (*Mutant, error) {
	src := churnSource(in.Source, rng, comments)
	g, err := gdl.Parse(in.Name, src)
	if err != nil {
		// A churned source that fails to parse is itself a mutator bug worth
		// failing loudly on: formatting churn must stay below the token level.
		return nil, fmt.Errorf("churned source no longer parses: %w", err)
	}
	return &Mutant{Source: src, Grammar: g}, nil
}

// churnSource rewrites src's inter-token space. It scans with the same
// five-state view as the GDL lexer (code, line comment, block comment, two
// quote kinds) and only ever edits in code state:
//
//   - horizontal whitespace runs are replaced (ws mode) or occasionally
//     turned into /*...*/ comments (comment mode);
//   - at existing newlines, blank lines (ws mode) or whole comment lines and
//     trailing // comments (comment mode) are inserted.
//
// Newlines are never added or removed within a line, keeping the lexer's
// same-line directive-argument grouping intact. Comments and quoted
// literals are copied verbatim.
func churnSource(src string, rng *RNG, comments bool) string {
	var b strings.Builder
	b.Grow(len(src) + len(src)/4)
	n := len(src)
	tag := func() string { return fmt.Sprintf("m%04x", rng.Uint64()&0xffff) }
	i := 0
	for i < n {
		c := src[i]
		switch {
		case c == '/' && i+1 < n && src[i+1] == '/':
			j := i
			for j < n && src[j] != '\n' {
				j++
			}
			b.WriteString(src[i:j])
			i = j
		case c == '/' && i+1 < n && src[i+1] == '*':
			j := strings.Index(src[i+2:], "*/")
			if j < 0 { // unterminated; copy the tail untouched
				b.WriteString(src[i:])
				return b.String()
			}
			b.WriteString(src[i : i+2+j+2])
			i += 2 + j + 2
		case c == '\'' || c == '"':
			j := i + 1
			for j < n && src[j] != c && src[j] != '\n' {
				j++
			}
			if j < n && src[j] == c {
				j++
			}
			b.WriteString(src[i:j])
			i = j
		case c == '\n':
			if comments && rng.Chance(1, 6) {
				b.WriteString("  // " + tag())
			}
			b.WriteByte('\n')
			if !comments && rng.Chance(1, 5) {
				b.WriteByte('\n')
			}
			if comments && rng.Chance(1, 6) {
				b.WriteString("// " + tag() + "\n")
			}
			i++
		case c == ' ' || c == '\t' || c == '\r':
			j := i
			for j < n && (src[j] == ' ' || src[j] == '\t' || src[j] == '\r') {
				j++
			}
			switch {
			case comments && rng.Chance(1, 5):
				b.WriteString(" /*" + tag() + "*/ ")
			case comments:
				b.WriteString(src[i:j])
			default:
				for k, reps := 0, 1+rng.Intn(3); k < reps; k++ {
					if rng.Chance(1, 4) {
						b.WriteByte('\t')
					} else {
						b.WriteByte(' ')
					}
				}
			}
			i = j
		default:
			j := i + 1
			for j < n {
				d := src[j]
				if d == '\n' || d == ' ' || d == '\t' || d == '\r' || d == '\'' || d == '"' ||
					(d == '/' && j+1 < n && (src[j+1] == '/' || src[j+1] == '*')) {
					break
				}
				j++
			}
			b.WriteString(src[i:j])
			i = j
		}
	}
	if comments && rng.Chance(1, 2) {
		b.WriteString("// " + tag() + "\n")
	}
	return b.String()
}

// --- grammar-level mutators ----------------------------------------------

func applyRenameSymbols(in Input, rng *RNG) (*Mutant, error) {
	ir := grammar.FromGrammar(in.Grammar)
	tag := rng.Uint64() & 0xffff
	nt, tt := 0, 0
	for id := 2; id < len(ir.Syms); id++ {
		if ir.Syms[id].Kind == grammar.Terminal {
			ir.Syms[id].Name = fmt.Sprintf("T%d_%04x", tt, tag)
			tt++
		} else {
			ir.Syms[id].Name = fmt.Sprintf("N%d_%04x", nt, tag)
			nt++
		}
	}
	return buildMutant(ir)
}

func applyPrecGaps(in Input, rng *RNG) (*Mutant, error) {
	ir := grammar.FromGrammar(in.Grammar)
	stretch := 2 + rng.Intn(3)
	offset := rng.Intn(5)
	any := false
	for i := range ir.Syms {
		if ir.Syms[i].Kind == grammar.Terminal && ir.Syms[i].Prec > 0 {
			ir.Syms[i].Prec = ir.Syms[i].Prec*stretch + offset
			any = true
		}
	}
	if !any {
		return nil, nil
	}
	return buildMutant(ir)
}

func applyReorderProds(in Input, rng *RNG) (*Mutant, error) {
	ir := grammar.FromGrammar(in.Grammar)
	if len(ir.Prods) < 2 {
		return nil, nil
	}
	for i := len(ir.Prods) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ir.Prods[i], ir.Prods[j] = ir.Prods[j], ir.Prods[i]
	}
	return buildMutant(ir)
}

func applyDropPrec(in Input, rng *RNG) (*Mutant, error) {
	ir := grammar.FromGrammar(in.Grammar)
	var decls []int
	for id, e := range ir.Syms {
		if e.Kind == grammar.Terminal && e.Prec > 0 {
			decls = append(decls, id)
		}
	}
	if len(decls) == 0 {
		return nil, nil
	}
	pick := decls[rng.Intn(len(decls))]
	ir.Syms[pick].Prec = 0
	ir.Syms[pick].Assoc = grammar.AssocUndefined
	// Re-densify the surviving levels so the mutant stays printable.
	seen := map[int]bool{}
	var levels []int
	for _, e := range ir.Syms {
		if e.Kind == grammar.Terminal && e.Prec > 0 && !seen[e.Prec] {
			seen[e.Prec] = true
			levels = append(levels, e.Prec)
		}
	}
	sort.Ints(levels)
	rank := make(map[int]int, len(levels))
	for i, l := range levels {
		rank[l] = i + 1
	}
	for i := range ir.Syms {
		if ir.Syms[i].Kind == grammar.Terminal && ir.Syms[i].Prec > 0 {
			ir.Syms[i].Prec = rank[ir.Syms[i].Prec]
		}
	}
	return buildMutant(ir)
}

func applyDupProd(in Input, rng *RNG) (*Mutant, error) {
	ir := grammar.FromGrammar(in.Grammar)
	if len(ir.Prods) == 0 {
		return nil, nil
	}
	p := ir.Prods[rng.Intn(len(ir.Prods))]
	ir.Prods = append(ir.Prods, grammar.ProdIR{
		LHS:     p.LHS,
		RHS:     append([]grammar.Sym(nil), p.RHS...),
		PrecSym: p.PrecSym,
	})
	return buildMutant(ir)
}

func applyUnfoldNonterm(in Input, rng *RNG) (*Mutant, error) {
	ir := grammar.FromGrammar(in.Grammar)
	type cand struct{ pi, pos int }
	var cands []cand
	for pi, p := range ir.Prods {
		for pos, s := range p.RHS {
			if ir.Syms[s].Kind != grammar.Nonterminal {
				continue
			}
			if alts := prodsOf(ir, s); len(alts) >= 1 && len(alts) <= 8 {
				cands = append(cands, cand{pi, pos})
			}
		}
	}
	if len(cands) == 0 {
		return nil, nil
	}
	c := cands[rng.Intn(len(cands))]
	host := ir.Prods[c.pi]
	target := host.RHS[c.pos]
	var unfolded []grammar.ProdIR
	for _, ai := range prodsOf(ir, target) {
		alt := ir.Prods[ai]
		rhs := make([]grammar.Sym, 0, len(host.RHS)-1+len(alt.RHS))
		rhs = append(rhs, host.RHS[:c.pos]...)
		rhs = append(rhs, alt.RHS...)
		rhs = append(rhs, host.RHS[c.pos+1:]...)
		// PrecSym is left to last-terminal inference: the unfolded bodies
		// are new productions with no declared %prec.
		unfolded = append(unfolded, grammar.ProdIR{LHS: host.LHS, RHS: rhs, PrecSym: grammar.NoSym})
	}
	prods := make([]grammar.ProdIR, 0, len(ir.Prods)-1+len(unfolded))
	prods = append(prods, ir.Prods[:c.pi]...)
	prods = append(prods, unfolded...)
	prods = append(prods, ir.Prods[c.pi+1:]...)
	ir.Prods = prods
	return buildMutant(ir)
}

func applySwapAssoc(in Input, rng *RNG) (*Mutant, error) {
	ir := grammar.FromGrammar(in.Grammar)
	seen := map[int]bool{}
	var levels []int
	for _, e := range ir.Syms {
		if e.Kind == grammar.Terminal && e.Prec > 0 && !seen[e.Prec] {
			seen[e.Prec] = true
			levels = append(levels, e.Prec)
		}
	}
	if len(levels) == 0 {
		return nil, nil
	}
	sort.Ints(levels)
	pick := levels[rng.Intn(len(levels))]
	for i := range ir.Syms {
		e := &ir.Syms[i]
		if e.Kind != grammar.Terminal || e.Prec != pick {
			continue
		}
		switch e.Assoc {
		case grammar.AssocLeft:
			e.Assoc = grammar.AssocRight
		case grammar.AssocRight:
			e.Assoc = grammar.AssocLeft
		default:
			e.Assoc = grammar.AssocLeft
		}
	}
	return buildMutant(ir)
}

// buildMutant rebuilds the IR and attaches a GDL rendering when the mutant
// is expressible (non-dense precedence levels, for one, are not).
func buildMutant(ir *grammar.IR) (*Mutant, error) {
	g, err := ir.Build()
	if err != nil {
		return nil, err
	}
	src, err := gdl.Print(g)
	if err != nil {
		src = ""
	}
	return &Mutant{Source: src, Grammar: g}, nil
}

// prodsOf returns the indices into ir.Prods whose LHS is n, in order.
func prodsOf(ir *grammar.IR, n grammar.Sym) []int {
	var out []int
	for i, p := range ir.Prods {
		if p.LHS == n {
			out = append(out, i)
		}
	}
	return out
}
