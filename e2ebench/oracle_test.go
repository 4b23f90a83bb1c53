package main

import (
	"regexp"
	"strings"
	"testing"
)

// The matcher counts bytes; regexp counts UTF-8 runes. On the bytes
// a, 0xC3, 0xA9, b the two-byte sequence is the rune é, so a raw UTF-8
// regexp sees one character between a and b where the matcher sees two.
func TestOracleCountsBytesNotRunes(t *testing.T) {
	input := []byte("a\xc3\xa9b")
	if !regexp.MustCompile(`(?s)(?:a.b)$`).Match(input) {
		t.Fatal("premise: a UTF-8 regexp reads 0xC3 0xA9 as one character")
	}
	o, err := newOracle([]string{"a.b", "a..b", `a[\x80-\xff]{2}b`})
	if err != nil {
		t.Fatal(err)
	}
	if o.matchesAt(0, input, 3) {
		t.Error("a.b confirmed over a 4-byte input: the oracle counted runes")
	}
	if !o.matchesAt(1, input, 3) {
		t.Error("a..b not confirmed over a, 0xC3, 0xA9, b")
	}
	if !o.matchesAt(2, input, 3) {
		t.Error(`a[\x80-\xff]{2}b not confirmed: bytes >= 0x80 must map to runes of the same value`)
	}
}

// A bounded pattern is tried on the last maxLen bytes of the prefix
// only; the verdict must equal a run over the whole prefix.
func TestOracleWindowKeepsVerdict(t *testing.T) {
	patterns := []string{"ab{2,4}c", "x(yz|y)*w", "q.{0,3}r"}
	o, err := newOracle(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if o.maxLen[0] != 6 || o.maxLen[1] != -1 || o.maxLen[2] != 5 {
		t.Fatalf("maxLen = %v, want [6 -1 5]", o.maxLen)
	}
	input := []byte(strings.Repeat("abbbcxyzyzwq\xffrabc", 5))
	for p, pat := range patterns {
		full := regexp.MustCompile(`(?s)(?:` + pat + `)$`)
		for e := range input {
			want := full.MatchString(latin1(input[:e+1]))
			if got := o.matchesAt(p, input, e); got != want {
				t.Fatalf("pattern %q end %d: windowed %v, whole prefix %v", pat, e, got, want)
			}
		}
	}
}

func TestOracleRefusesLookBehind(t *testing.T) {
	for _, p := range []string{"^ab", "ab$", `\bab`} {
		if _, err := newOracle([]string{p}); err == nil {
			t.Errorf("newOracle(%q) accepted an assertion the window would break", p)
		}
	}
}
