// Package metamorph implements metamorphic differential testing for the
// counterexample finder (the S14b methodology in DESIGN.md): deterministic
// seeded mutations of grammars, each tagged with an invariant class stating
// what the mutation must NOT change, plus checkers that compare the finder's
// behavior on the original and the mutant.
//
// The central trick is that a mutated grammar is rebuilt through an IR that
// replays the original symbol-interning order (see grammar.IR), so the mutant's
// Sym ids — and therefore its LALR automaton's state numbering — coincide
// with the original's wherever the mutation is semantics-preserving. That
// makes conflict coordinates directly comparable, and lets the
// name-normalizing canonical report (core.CanonicalReport) compare
// counterexamples across symbol renamings byte-for-byte.
package metamorph

import (
	"fmt"

	"lrcex/internal/grammar"
)

// Class is the invariant class of a mutation: the strongest relation the
// checkers are entitled to demand between original and mutant.
type Class int

const (
	// Formatting mutations change only whitespace and comments: the GDL
	// token stream is untouched, so gdl.Fingerprint must be identical and the
	// parsed grammar structurally equal. The finder is never run — fingerprint
	// stability IS the invariant (it is what the cexd cache keys on).
	Formatting Class = iota
	// Equivalent mutations (symbol renaming, order-preserving precedence
	// level changes) keep the automaton and every resolution decision
	// identical: conflict coordinates, canonical reports, and search stats
	// must all match exactly.
	Equivalent
	// ConflictsPreserved mutations (production reordering) keep the conflict
	// structure — counts per kind and the multiset of counterexample kinds —
	// but may renumber states and shuffle which order conflicts are found in,
	// so only aggregate comparisons apply, and stats only within a ratio.
	ConflictsPreserved
	// Perturbing mutations deliberately change semantics (drop a precedence
	// declaration, duplicate a production, unfold a nonterminal, swap
	// associativity). No relation to the original is demanded; only the
	// universal per-grammar oracles apply: every unifying example must
	// reparse ambiguously under GLR, every nonunifying prefix must reach the
	// conflict.
	Perturbing
)

func (c Class) String() string {
	switch c {
	case Formatting:
		return "formatting"
	case Equivalent:
		return "equivalent"
	case ConflictsPreserved:
		return "conflicts-preserved"
	case Perturbing:
		return "perturbing"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Stricter reports whether c demands at least as much as d; the effective
// class of a mutator chain is the weakest (maximum) class in the chain.
func (c Class) Stricter(d Class) bool { return c <= d }

// Input is the subject of a mutation: a named grammar together with its GDL
// source. Source-level mutators rewrite Source; grammar-level mutators
// rewrite Grammar through the IR.
type Input struct {
	Name    string
	Source  string
	Grammar *grammar.Grammar
}

// Mutant is one mutation result. Grammar is always set. Source is the GDL
// text when the mutant is expressible in GDL ("" when it is not, e.g. after
// the precedence-gap mutator makes levels non-dense — gdl.Print requires
// dense levels).
type Mutant struct {
	Mutator string
	Class   Class
	Seed    uint64
	Source  string
	Grammar *grammar.Grammar
}

// Mutator is a named, classed, seeded grammar transformation. apply returns
// (nil, nil) when the mutation does not apply to the input (e.g. drop-prec on
// a grammar with no precedence declarations); the campaign records such
// pairs as skipped rather than failed.
type Mutator struct {
	Name  string
	Class Class
	apply func(in Input, rng *RNG) (*Mutant, error)
}

// Apply runs the mutator under a seed. The per-mutator RNG stream is
// decorrelated from the seed and the mutator name, so seed s produces
// independent choices across mutators.
func (m Mutator) Apply(in Input, seed uint64) (*Mutant, error) {
	rng := NewRNG(seed ^ hashString(m.Name))
	mut, err := m.apply(in, rng)
	if err != nil {
		return nil, fmt.Errorf("metamorph: %s(seed=%d) on %s: %w", m.Name, seed, in.Name, err)
	}
	if mut != nil {
		mut.Mutator = m.Name
		mut.Class = m.Class
		mut.Seed = seed
	}
	return mut, nil
}

// All lists every mutator in campaign order: formatting first (cheapest
// check), then equivalence, then structure-preserving, then perturbing.
func All() []Mutator {
	return []Mutator{
		WSChurn,
		CommentChurn,
		RenameSymbols,
		PrecGaps,
		ReorderProds,
		DropPrec,
		DupProd,
		UnfoldNonterm,
		SwapAssoc,
	}
}

// ByName returns the named mutator from All.
func ByName(name string) (Mutator, bool) {
	for _, m := range All() {
		if m.Name == name {
			return m, true
		}
	}
	return Mutator{}, false
}

// RNG is a splitmix64 stream: tiny, seedable, and — unlike math/rand — with a
// sequence the package controls, so a (mutator, seed) pair reproduces the
// same mutant on any platform and any future Go release.
type RNG struct{ s uint64 }

// NewRNG returns a stream for the seed.
func NewRNG(seed uint64) *RNG { return &RNG{s: seed} }

// Uint64 returns the next value of the stream.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n); n <= 0 returns 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Bool flips a fair coin.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Chance returns true with probability num/den.
func (r *RNG) Chance(num, den int) bool { return r.Intn(den) < num }

// hashString is FNV-1a, used to derive per-mutator RNG streams.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
