package main

import (
	"fmt"
	"regexp"
	"regexp/syntax"
	"unicode/utf8"
)

// oracle confirms match ends with Go's regexp package, which shares no
// code with the matcher under test. A match of pattern p ending at byte
// e exists iff (?s)(?:p)$ matches the input prefix [0, e].
//
// regexp counts UTF-8 runes while the matcher counts bytes, so every
// input is transcoded one byte to one rune (Latin-1) before matching:
// without it a '.' over a byte >= 0x80 would match a multi-byte rune or
// nothing at all.
type oracle struct {
	res []*regexp.Regexp // (?s)(?:p)$ per pattern
	// maxLen is the longest match of each pattern in bytes, or -1 when
	// unbounded. A bounded pattern is tried only on the last maxLen bytes
	// of a prefix, which cannot change the verdict: no pattern here uses
	// ^, \b or \B, the only constructs that look past a match's start.
	maxLen []int
	// whole is ^(?s)(?:p)$, used to vet exemplars before planting them.
	whole []*regexp.Regexp
}

func newOracle(patterns []string) (*oracle, error) {
	o := &oracle{}
	for i, p := range patterns {
		re, err := syntax.Parse("(?s)(?:"+p+")", syntax.Perl)
		if err != nil {
			return nil, fmt.Errorf("oracle: pattern %d %q: %w", i, p, err)
		}
		if lookBehind(re) {
			return nil, fmt.Errorf("oracle: pattern %d %q: anchors and word boundaries are not supported", i, p)
		}
		o.res = append(o.res, regexp.MustCompile("(?s)(?:"+p+")$"))
		o.whole = append(o.whole, regexp.MustCompile("^(?s)(?:"+p+")$"))
		o.maxLen = append(o.maxLen, maxWidth(re))
	}
	return o, nil
}

// latin1 maps each byte to the rune of the same value.
func latin1(b []byte) string {
	out := make([]byte, 0, len(b)+len(b)/4)
	for _, c := range b {
		out = utf8.AppendRune(out, rune(c))
	}
	return string(out)
}

// matchesAt reports whether pattern i has a match ending at byte end of
// input.
func (o *oracle) matchesAt(i int, input []byte, end int) bool {
	start := 0
	if n := o.maxLen[i]; n >= 0 && end+1-n > 0 {
		start = end + 1 - n
	}
	return o.res[i].MatchString(latin1(input[start : end+1]))
}

// exact reports whether ex as a whole is a match of pattern i.
func (o *oracle) exact(i int, ex []byte) bool { return o.whole[i].MatchString(latin1(ex)) }

// lookBehind reports whether re holds an assertion that depends on
// bytes before the match start or after its end.
func lookBehind(re *syntax.Regexp) bool {
	switch re.Op {
	case syntax.OpBeginLine, syntax.OpEndLine, syntax.OpBeginText, syntax.OpEndText,
		syntax.OpWordBoundary, syntax.OpNoWordBoundary:
		return true
	}
	for _, s := range re.Sub {
		if lookBehind(s) {
			return true
		}
	}
	return false
}

// maxWidth returns the longest match of re in Latin-1 runes (= input
// bytes), or -1 when unbounded.
func maxWidth(re *syntax.Regexp) int {
	switch re.Op {
	case syntax.OpLiteral:
		return len(re.Rune)
	case syntax.OpCharClass, syntax.OpAnyChar, syntax.OpAnyCharNotNL:
		return 1
	case syntax.OpStar, syntax.OpPlus:
		return -1
	case syntax.OpQuest, syntax.OpCapture:
		return maxWidth(re.Sub[0])
	case syntax.OpRepeat:
		w := maxWidth(re.Sub[0])
		if re.Max < 0 || w < 0 {
			return -1
		}
		return w * re.Max
	case syntax.OpConcat:
		total := 0
		for _, s := range re.Sub {
			w := maxWidth(s)
			if w < 0 {
				return -1
			}
			total += w
		}
		return total
	case syntax.OpAlternate:
		best := 0
		for _, s := range re.Sub {
			w := maxWidth(s)
			if w < 0 {
				return -1
			}
			if w > best {
				best = w
			}
		}
		return best
	default: // empty match and zero-width assertions
		return 0
	}
}
