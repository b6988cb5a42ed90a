package gdl_test

import (
	"strings"
	"testing"

	"lrcex/internal/corpus"
	"lrcex/internal/gdl"
	"lrcex/internal/grammar"
)

func fp(t *testing.T, src string) string {
	t.Helper()
	f, err := gdl.Fingerprint("fp", src, gdl.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFingerprintDirectiveLineSensitivity is the regression test for a cache
// collision the metamorphic formatting-churn mutator surfaced: directive
// argument lists are line-terminated, so moving "'-'" off the %left line
// changes the parse — here it turns a valid grammar into a parse error —
// while the token stream (the old fingerprint input) stays identical. The
// analysis service computes the fingerprint *before* parsing, so under the
// old hash the unparseable source would hit the valid grammar's cache entry
// and be served its report. The fingerprint must separate the two.
func TestFingerprintDirectiveLineSensitivity(t *testing.T) {
	oneLine := `
%left '+' '-'
e : e '+' e | e '-' e | NUM ;
`
	split := `
%left '+'
'-'
e : e '+' e | e '-' e | NUM ;
`
	// Preconditions: the first source parses, the second does not (the
	// orphaned literal cannot start a rule).
	if _, err := gdl.Parse("one", oneLine); err != nil {
		t.Fatal(err)
	}
	if _, err := gdl.Parse("split", split); err == nil {
		t.Fatal("precondition failed: split source unexpectedly parses")
	}
	if fp(t, oneLine) == fp(t, split) {
		t.Error("valid grammar and parse-error source share a fingerprint (directive line break ignored)")
	}
}

// TestFingerprintFormattingInvariance locks the property the result cache
// depends on: comments, indentation, and newline placement *outside*
// line-sensitive directive argument lists never change the fingerprint.
func TestFingerprintFormattingInvariance(t *testing.T) {
	base := `
%token NUM
%left '+' '-'
%start e
e : e '+' e | e '-' e | NUM ;
`
	variants := []string{
		// Comment churn.
		`
// leading
%token NUM /* inline */
%left '+' '-'
%start e
e : e '+' e /* mid */ | e '-' e | NUM ; // trailing
`,
		// Indentation and blank lines; rule bodies may wrap freely.
		`

	%token NUM
	%left '+' '-'

	%start
	e
	e :
	   e '+' e
	 | e '-' e
	 | NUM
	 ;
`,
	}
	want := fp(t, base)
	for i, v := range variants {
		g1, err := gdl.Parse("base", base)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := gdl.Parse("variant", v)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if !grammar.Equal(g1, g2) {
			t.Fatalf("variant %d parses to a different grammar", i)
		}
		if got := fp(t, v); got != want {
			t.Errorf("variant %d: fingerprint changed under pure reformatting", i)
		}
	}
}

// TestFingerprintMatchesReferenceOnCorpus checks the streaming Fingerprint
// against the token-slice reference on every corpus grammar, whole and cut
// at a spread of byte offsets (which leaves unterminated comments and
// literals and directive lists cut mid-line).
func TestFingerprintMatchesReferenceOnCorpus(t *testing.T) {
	n := 0
	for _, e := range corpus.All() {
		srcs := []string{e.Source, strings.ReplaceAll(e.Source, "\n", " ")}
		for cut := 1; cut < len(e.Source); cut += len(e.Source)/16 + 1 {
			srcs = append(srcs, e.Source[:cut])
		}
		for _, src := range srcs {
			got, gerr := gdl.Fingerprint(e.Name, src, gdl.Limits{})
			want, werr := gdl.ReferenceFingerprint(e.Name, src, gdl.Limits{})
			if got != want || (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("%s (%d bytes): Fingerprint %s, %v; reference %s, %v", e.Name, len(src), got, gerr, want, werr)
			}
			n++
		}
	}
	t.Logf("%d sources matched", n)
}
