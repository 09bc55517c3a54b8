package pipeline

import "strings"

// extractor fills fields from one well-known shape of orchestrator line.
// scan returns the captured substrings of the body in field order; the
// scanners give exactly the leftmost-first submatches of the regexp each
// one is named after, where \b is the ASCII word boundary, and allocate
// nothing.
type extractor struct {
	name   string // the regexp the scanner stands for
	scan   func(body string) (m [2]string, ok bool)
	fields []string
}

// extractors are applied to every annotated line; later entries overwrite
// earlier ones ("total"). One table walked by one loop, so Process has one
// SetField site for all of them and allocates no per-call pattern table.
var extractors = []extractor{
	{`\b(i-[0-9a-f]+)\b`, scanInstanceID, []string{"instanceid"}},
	{`\b(ami-[0-9a-zA-Z-]+)\b`, scanAMIID, []string{"amiid"}},
	{`group (\S+)`, scanGroup, []string{"asgid"}},
	{`\b(\d+) of (\d+) instances?\b`, scanProgress, []string{"num", "total"}},
	{`Sorted (\d+) instances`, scanSorted, []string{"total"}},
}

// scanInstanceID scans for \b(i-[0-9a-f]+)\b. The run is greedy and
// stops at a byte outside [0-9a-f]; a shorter run would end between two
// word bytes, so the boundary holds after the longest run or nowhere.
func scanInstanceID(body string) (m [2]string, ok bool) {
	for at := 0; ; at++ {
		i := strings.Index(body[at:], "i-")
		if i < 0 {
			return m, false
		}
		at += i
		if isWord(body, at-1) {
			continue
		}
		end := spanOf(body, at+2, isHex)
		if end > at+2 && !isWord(body, end) {
			m[0] = body[at:end]
			return m, true
		}
	}
}

// scanAMIID scans for \b(ami-[0-9a-zA-Z-]+)\b. The run may hold dashes,
// so it is shortened from its longest end until a word boundary holds.
func scanAMIID(body string) (m [2]string, ok bool) {
	for at := 0; ; at++ {
		i := strings.Index(body[at:], "ami-")
		if i < 0 {
			return m, false
		}
		at += i
		if isWord(body, at-1) {
			continue
		}
		for end := spanOf(body, at+4, isAMIByte); end > at+4; end-- {
			if isWord(body, end-1) != isWord(body, end) {
				m[0] = body[at:end]
				return m, true
			}
		}
	}
}

// scanGroup scans for group (\S+).
func scanGroup(body string) (m [2]string, ok bool) {
	for at := 0; ; at++ {
		i := strings.Index(body[at:], "group ")
		if i < 0 {
			return m, false
		}
		at += i
		if end := spanOf(body, at+6, isNonSpace); end > at+6 {
			m[0] = body[at+6 : end]
			return m, true
		}
	}
}

// scanProgress scans for \b(\d+) of (\d+) instances?\b. Each " of " pins
// its match: the first number is the digits right before it, which must
// start at a boundary, and the second the digits right after it.
func scanProgress(body string) (m [2]string, ok bool) {
	for at := 0; ; at++ {
		i := strings.Index(body[at:], " of ")
		if i < 0 {
			return m, false
		}
		at += i
		start := at
		for start > 0 && isDigit(body[start-1]) {
			start--
		}
		if start == at || isWord(body, start-1) {
			continue
		}
		end := spanOf(body, at+4, isDigit)
		if end == at+4 || !strings.HasPrefix(body[end:], " instance") {
			continue
		}
		tail := end + len(" instance")
		if tail < len(body) && body[tail] == 's' {
			tail++
		}
		if !isWord(body, tail) {
			m[0], m[1] = body[start:at], body[at+4:end]
			return m, true
		}
	}
}

// scanSorted scans for Sorted (\d+) instances.
func scanSorted(body string) (m [2]string, ok bool) {
	for at := 0; ; at++ {
		i := strings.Index(body[at:], "Sorted ")
		if i < 0 {
			return m, false
		}
		at += i
		end := spanOf(body, at+7, isDigit)
		if end > at+7 && strings.HasPrefix(body[end:], " instances") {
			m[0] = body[at+7 : end]
			return m, true
		}
	}
}

// spanOf returns the end of the run of bytes in class starting at from.
func spanOf(s string, from int, in func(byte) bool) int {
	for from < len(s) && in(s[from]) {
		from++
	}
	return from
}

// isWord reports whether s[i] is an ASCII word byte; false off either end.
// A byte >= 0x80 belongs to a rune outside \w, or is one the regexp reads
// as RuneError, so it is never a word byte.
func isWord(s string, i int) bool {
	if i < 0 || i >= len(s) {
		return false
	}
	c := s[i]
	return isDigit(c) || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' }

func isAMIByte(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '-'
}

// isNonSpace is \S on bytes: everything but the five ASCII spaces.
func isNonSpace(c byte) bool {
	return c != ' ' && c != '\t' && c != '\n' && c != '\f' && c != '\r'
}
