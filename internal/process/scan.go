package process

import (
	"regexp/syntax"
	"slices"
	"strings"
	"unicode/utf8"
)

// A scan answers MatchString for a pattern in the scannable subset without
// running a regexp: a concatenation of case-sensitive literals and runs —
// one or more of a character class that holds only ASCII (`\d`, `\s`) or
// every non-ASCII rune (`\S`) — optionally ending in parts that may match
// empty (`instances?`), which a yes/no answer can drop.
//
// Bytes stand in for runes. A multi-byte rune is all bytes >= 0x80, and so
// is an invalid byte the regexp reads as RuneError, so a class holds such a
// byte exactly when it holds every non-ASCII rune. A literal holds no
// RuneError and starts with a byte that no rune continues, so wherever its
// bytes occur a rune starts. Two runs may only touch when no byte is in
// both classes, so a run never splits a rune and where one ends is never
// in doubt.
//
// The regexp's greedy run backtracks until the literal after it fits. The
// scan computes at build time where that literal must start instead: at
// its first byte outside the run's class, counted back from the run's
// longest end — `group \S+\. ` ends the run one byte short of the space.
// A literal wholly inside the class is placed by the run that follows it
// when that run shares no byte with the class (`\S+,\s+`), or searched for
// when it ends the pattern; any other such run falls back to regexp.
type scan struct {
	lead []*byteClass // runs before the first literal, in pattern order
	head string       // the first literal
	rest []piece      // the pieces after it
}

// piece is a literal, or a run of one or more bytes of a class.
type piece struct {
	lit   string
	class *byteClass // nil for a literal
	// back, for a run followed by a literal, is how far before the run's
	// longest end that literal starts; searchLit when the literal ends the
	// pattern inside the class and is searched for.
	back int
}

// searchLit marks a run whose final literal lies wholly inside its class.
const searchLit = -1

// byteClass holds the bytes a run may consume.
type byteClass [256]bool

// match reports whether the pattern matches somewhere in line.
func (s *scan) match(line string) bool {
	for from := 0; ; {
		i := strings.Index(line[from:], s.head)
		if i < 0 {
			return false
		}
		at := from + i
		if s.leadEndsAt(line, at) && s.restFrom(line, at+len(s.head)) {
			return true
		}
		from = at + 1
	}
}

// leadEndsAt reports whether the leading runs match a stretch of line
// ending at end. Every run but the first is pinned: its start is where the
// bytes of its class stop, as the run before it shares none of them; the
// first only needs one byte.
func (s *scan) leadEndsAt(line string, end int) bool {
	for k := len(s.lead) - 1; k > 0; k-- {
		start := end
		for start > 0 && s.lead[k][line[start-1]] {
			start--
		}
		if start == end {
			return false
		}
		end = start
	}
	return len(s.lead) == 0 || end > 0 && s.lead[0][line[end-1]]
}

// restFrom reports whether the pieces after the first literal match line
// from pos on.
func (s *scan) restFrom(line string, pos int) bool {
	for k := range s.rest {
		p := &s.rest[k]
		if p.class == nil {
			if !strings.HasPrefix(line[pos:], p.lit) {
				return false
			}
			pos += len(p.lit)
			continue
		}
		if pos == len(line) || !p.class[line[pos]] {
			return false
		}
		if k == len(s.rest)-1 {
			return true
		}
		end := pos + 1
		for end < len(line) && p.class[line[end]] {
			end++
		}
		if p.back == searchLit {
			return strings.Contains(line[pos+1:end], s.rest[k+1].lit)
		}
		if end-p.back <= pos {
			return false
		}
		pos = end - p.back
	}
	return true
}

// Scannable reports whether a pattern classifies without a regexp: it
// parses and falls in the scannable subset. Every other pattern is
// confirmed by its regexp.
func Scannable(pattern string) bool { return compileScan(pattern) != nil }

// compileScan returns the scan of pattern, or nil when the pattern falls
// outside the scannable subset.
func compileScan(pattern string) *scan {
	re, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		return nil
	}
	re = re.Simplify()
	subs := []*syntax.Regexp{re}
	if re.Op == syntax.OpConcat {
		subs = re.Sub
	}
	for n := len(subs); n > 0 && (subs[n-1].Op == syntax.OpQuest || subs[n-1].Op == syntax.OpStar); n-- {
		subs = subs[:n-1]
	}
	var pieces []piece
	for _, sub := range subs {
		last := len(pieces) - 1
		switch {
		case sub.Op == syntax.OpLiteral:
			if sub.Flags&syntax.FoldCase != 0 || slices.Contains(sub.Rune, utf8.RuneError) {
				return nil
			}
			if last >= 0 && pieces[last].class == nil {
				pieces[last].lit += string(sub.Rune)
			} else {
				pieces = append(pieces, piece{lit: string(sub.Rune)})
			}
		case sub.Op == syntax.OpPlus && sub.Sub[0].Op == syntax.OpCharClass:
			class := classOf(sub.Sub[0].Rune)
			if class == nil || last >= 0 && pieces[last].class != nil && overlap(pieces[last].class, class) {
				return nil
			}
			pieces = append(pieces, piece{class: class})
		default:
			return nil
		}
	}
	h := slices.IndexFunc(pieces, func(p piece) bool { return p.class == nil })
	if h < 0 {
		return nil
	}
	s := &scan{head: pieces[h].lit, rest: pieces[h+1:]}
	for _, p := range pieces[:h] {
		s.lead = append(s.lead, p.class)
	}
	for k := range s.rest {
		p := &s.rest[k]
		if p.class == nil || k == len(s.rest)-1 || s.rest[k+1].class != nil {
			continue
		}
		lit := s.rest[k+1].lit
		p.back = outside(p.class, lit)
		switch {
		case p.back >= 0:
		case k+2 == len(s.rest):
			p.back = searchLit
		case !overlap(p.class, s.rest[k+2].class):
			p.back = len(lit)
		default:
			return nil
		}
	}
	return s
}

// outside returns the index of the first byte of lit not in class, or -1.
func outside(class *byteClass, lit string) int {
	for i := 0; i < len(lit); i++ {
		if !class[lit[i]] {
			return i
		}
	}
	return -1
}

// classOf returns the bytes of a character class (sorted rune ranges) that
// holds only ASCII or every non-ASCII rune; nil for any other class.
func classOf(ranges []rune) *byteClass {
	var c byteClass
	for i := 0; i < len(ranges); i += 2 {
		lo, hi := ranges[i], ranges[i+1]
		if hi >= utf8.RuneSelf {
			if lo > utf8.RuneSelf || hi != utf8.MaxRune {
				return nil
			}
			hi = 0xFF
		}
		for b := lo; b <= hi; b++ {
			c[b] = true
		}
	}
	return &c
}

func overlap(a, b *byteClass) bool {
	for i := range a {
		if a[i] && b[i] {
			return true
		}
	}
	return false
}
