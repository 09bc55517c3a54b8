package process

import (
	"bytes"
	"regexp"
	"regexp/syntax"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"
)

// The matcher is the compiled form of a model's transformation rules
// (§III.A): every activity pattern and known-error pattern becomes a
// template — the regexp plus a literal every match of it must contain.
// Per line the literal is searched first and the regexp runs only to
// confirm, so a line pays for the one or two regexps it can actually
// match instead of for all of them.

// template is one literal-guarded pattern.
type template struct {
	re *regexp.Regexp
	// guard is a literal every match of re contains; empty when the
	// pattern has none (the regexp then runs on every line).
	guard string
	// foldGuard is guard as lower-case bytes, set instead of guard when
	// the literal sits under (?i). It is only consulted for ASCII lines:
	// simple folding maps non-ASCII runes (K, ſ) onto ASCII letters, so on
	// any other line the regexp decides alone.
	foldGuard []byte
	node      *Node // nil for known-error patterns
}

// matcher classifies lines against one model's templates.
type matcher struct {
	// activities are ordered so the first match is the answer: longest
	// pattern source first, ties to the lower node id (the order Classify
	// always resolved them in).
	activities []template
	errors     []template
	folds      bool // some template carries a foldGuard

	// The last answer is kept: the log processor and the conformance
	// checker hold the same model and ask about the same line back to
	// back, and the second question should not run a regexp.
	mu       sync.Mutex
	lastLine string
	lastNode *Node
	lastErr  bool
	lastOK   bool
}

// foldBuf bounds the stack buffer a line is lower-cased into; longer
// lines skip the case-folded guards.
const foldBuf = 512

func newTemplate(re *regexp.Regexp, node *Node) template {
	t := template{re: re, node: node}
	lit, fold := requiredLiteral(re.String())
	if fold {
		t.foldGuard = bytes.ToLower([]byte(lit))
	} else {
		t.guard = lit
	}
	return t
}

// newMatcher takes the activity templates in node-id order (each node's in
// declaration order) and the known-error templates.
func newMatcher(activities, errors []template) *matcher {
	mt := &matcher{activities: activities, errors: errors}
	sort.SliceStable(mt.activities, func(i, j int) bool {
		return len(mt.activities[i].re.String()) > len(mt.activities[j].re.String())
	})
	for _, group := range [][]template{mt.activities, mt.errors} {
		for _, t := range group {
			if t.foldGuard != nil {
				mt.folds = true
			}
		}
	}
	return mt
}

// Match classifies a raw log line in one pass: the activity whose pattern
// matches (the longest pattern wins, ties go to the lower node id; nil
// when none does) and whether the line matches a known-error pattern. The
// two answers are independent — an error line may also name an activity.
func (m *Model) Match(line string) (node *Node, isError bool) {
	mt := m.matcher
	mt.mu.Lock()
	if mt.lastOK && mt.lastLine == line {
		node, isError = mt.lastNode, mt.lastErr
		mt.mu.Unlock()
		return node, isError
	}
	mt.mu.Unlock()

	node, isError = mt.match(line)

	mt.mu.Lock()
	mt.lastLine, mt.lastNode, mt.lastErr, mt.lastOK = line, node, isError, true
	mt.mu.Unlock()
	return node, isError
}

func (mt *matcher) match(line string) (*Node, bool) {
	// lower is the line lower-cased, for the case-folded guards; nil when
	// the line is too long or not ASCII, and those guards are skipped.
	var buf [foldBuf]byte
	var lower []byte
	if mt.folds && len(line) <= foldBuf {
		lower = buf[:len(line)]
		for i := 0; i < len(line); i++ {
			c := line[i]
			if c >= utf8.RuneSelf {
				lower = nil
				break
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			lower[i] = c
		}
	}
	var node *Node
	for i := range mt.activities {
		if mt.activities[i].matches(line, lower) {
			node = mt.activities[i].node
			break
		}
	}
	for i := range mt.errors {
		if mt.errors[i].matches(line, lower) {
			return node, true
		}
	}
	return node, false
}

func (t *template) matches(line string, lower []byte) bool {
	switch {
	case t.foldGuard != nil:
		if lower != nil && !bytes.Contains(lower, t.foldGuard) {
			return false
		}
	case t.guard != "":
		if !strings.Contains(line, t.guard) {
			return false
		}
	}
	return t.re.MatchString(line)
}

// requiredLiteral returns the longest literal every match of the pattern
// must contain, and whether it is matched case-insensitively. It returns
// "" when the pattern guarantees none (alternations, optional parts).
func requiredLiteral(pattern string) (lit string, fold bool) {
	re, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		return "", false
	}
	return longestLiteral(re.Simplify())
}

func longestLiteral(re *syntax.Regexp) (string, bool) {
	switch re.Op {
	case syntax.OpLiteral:
		for _, r := range re.Rune {
			// The regexp decodes invalid UTF-8 in the line as RuneError;
			// a byte search for its encoding would not.
			if r == utf8.RuneError {
				return "", false
			}
		}
		return string(re.Rune), re.Flags&syntax.FoldCase != 0
	case syntax.OpCapture, syntax.OpPlus:
		return longestLiteral(re.Sub[0])
	case syntax.OpRepeat:
		if re.Min >= 1 {
			return longestLiteral(re.Sub[0])
		}
	case syntax.OpConcat:
		var best string
		var bestFold bool
		for _, sub := range re.Sub {
			if lit, fold := longestLiteral(sub); len(lit) > len(best) {
				best, bestFold = lit, fold
			}
		}
		return best, bestFold
	}
	return "", false
}
