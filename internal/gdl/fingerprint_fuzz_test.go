package gdl

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// referenceFingerprint is the definition Fingerprint must match bit for bit:
// the SHA-256 of the whole token slice, each token framed as (kind byte, text
// length byte, text), each line-sensitive directive followed by 0xff and its
// same-line argument count as two little-endian bytes. Cache keys and
// persisted result records are these hashes, so Fingerprint may compute them
// differently but never produce a different value.
func referenceFingerprint(name, src string, lim Limits) (string, error) {
	if err := lim.check(name, LimitSourceBytes, lim.MaxSourceBytes, len(src)); err != nil {
		return "", err
	}
	toks, err := lex(name, src)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var sep [2]byte
	for i, t := range toks {
		sep[0] = byte(t.kind)
		sep[1] = byte(len(t.text))
		h.Write(sep[:])
		h.Write([]byte(t.text))
		if t.kind == tokDirective && lineSensitiveDirective(t.text) {
			n := 0
			for _, a := range toks[i+1:] {
				if (a.kind != tokIdent && a.kind != tokLiteral) || a.line != t.line {
					break
				}
				n++
			}
			h.Write([]byte{0xff, byte(n), byte(n >> 8)})
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkFingerprint fails when Fingerprint and the reference disagree on the
// hash or on the error text.
func checkFingerprint(t *testing.T, src string, lim Limits) {
	t.Helper()
	got, gerr := Fingerprint("fz", src, lim)
	want, werr := referenceFingerprint("fz", src, lim)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("error mismatch on %q: Fingerprint %v, reference %v", src, gerr, werr)
	}
	if got != want {
		t.Fatalf("fingerprint mismatch on %q: %s, reference %s", src, got, want)
	}
}

// fingerprintSeeds covers every token kind, every lexical error, directive
// argument lists cut by line ends, comments, errors met while counting a
// directive's arguments, and a text longer than 255 bytes.
func fingerprintSeeds(t testing.TB) []string {
	seeds := []string{
		"",
		"x : ;",
		"%token A B\n%left '+' \"-\"\n%start e\ne : e '+' e %prec '+' | A ;",
		"%left '+'\n'-'\ne : e '+' e ;",
		"%token A /* a\nb */ B\nx : A ;",
		"%right A // trailing\nx : A ;",
		"%nonassoc 'a' 'unterminated\nx : ;",
		"%token A /* unterminated",
		"%terminal A B %token C\nx : ;",
		"%token A\r\n\tB\nx : A | B ;",
		"x : 'a' '' ;",
		"% x",
		"x : y ; ^",
		"x : <tag> a.b'c ;",
		"%token A\nx : " + longIdent(300) + " ;",
		"\x00\xff\xfe",
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.cfg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, string(b))
	}
	return seeds
}

func longIdent(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte(i%26)
	}
	return string(b)
}

// TestFingerprintMatchesReference runs the fuzz seeds as a plain test, with
// and without a source limit.
func TestFingerprintMatchesReference(t *testing.T) {
	for _, src := range fingerprintSeeds(t) {
		checkFingerprint(t, src, Limits{})
		checkFingerprint(t, src, Limits{MaxSourceBytes: 16})
	}
}

// FuzzFingerprint checks that the streaming Fingerprint equals the token-slice
// reference, hash and error text alike, on arbitrary sources.
func FuzzFingerprint(f *testing.F) {
	for _, src := range fingerprintSeeds(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkFingerprint(t, src, Limits{})
	})
}

// TestFingerprintAllocs pins the streaming hash's allocations to the one
// result string: the scanner allocates nothing, so the count does not grow
// with the source. Skipped
// under -short, whose race-instrumented runs allocate differently.
func TestFingerprintAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin runs without -short")
	}
	src := "%token NUM\n%left '+' '-'\n" + "e : e '+' e | e '-' e | NUM ;\n"
	for range 6 {
		src += src
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := Fingerprint("a", src, Limits{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per Fingerprint of %d bytes", got, len(src))
	if got > 1 {
		t.Errorf("Fingerprint: %.0f allocs, pinned at 1", got)
	}
}
