package pipeline

import (
	"regexp"
	"slices"
	"strings"
	"testing"
)

// referenceExtractors are the field extractors as regexps, in table order:
// the scanners must give exactly their leftmost-first submatches.
var referenceExtractors = []struct {
	re     *regexp.Regexp
	fields []string
}{
	{regexp.MustCompile(`\b(i-[0-9a-f]+)\b`), []string{"instanceid"}},
	{regexp.MustCompile(`\b(ami-[0-9a-zA-Z-]+)\b`), []string{"amiid"}},
	{regexp.MustCompile(`group (\S+)`), []string{"asgid"}},
	{regexp.MustCompile(`\b(\d+) of (\d+) instances?\b`), []string{"num", "total"}},
	{regexp.MustCompile(`Sorted (\d+) instances`), []string{"total"}},
}

// extractCorpus is real orchestrator lines plus the cases a byte scanner
// could get wrong: ids inside words, word bytes next to a boundary,
// trailing dashes, the optional plural, candidates that fail before one
// that holds, and bytes that are not ASCII or not UTF-8.
func extractCorpus() []string {
	lines := []string{
		"Starting rolling upgrade of group pm--asg to image ami-750c9e4f",
		"Created launch configuration pm-lc-v2 with image ami-750c9e4f",
		"Updated group pm--asg to launch configuration pm-lc-v2",
		"Sorted 4 instances for replacement",
		"Removed and deregistered instance i-7df34041 from ELB pm-elb",
		"Terminating old instance i-7df34041",
		"Waiting for group pm--asg to start a new instance",
		"Instance pm on i-7df34041 is ready for use. 4 of 4 instance relaunches done.",
		"Status: 2 of 4 instances replaced",
		"Instance i-1 joined group pm--asg. 4 of 6 instances in service.",
		"Shifted load balancer g-elb to green group g-green. 2 of 2 instances registered.",
		"Waiting for group g to replace 1 interrupted instance",
		// i- and ami- inside words; ami- contains i-.
		"ami-123", "xami-123 i-9", "hi-abc", "xi-abc i-def", "_i-1 i-2", "9i-1", "i-", "i-g", "i-1g i-2",
		"i-abcdef0123", "i-ABC", "i-1_", "i-1-", "i-1.", "(i-ff)", "i-1\xff", "\xffi-1", "é i-12 é",
		"ami-", "ami-x-", "ami-x-y-", "ami-x--", "ami-x_", "ami-_x", "ami--", "ami--x", "_ami-1 ami-2",
		"1ami-2", "ami-Ab9-", "ami-1é", "ami-1\xff", "ami-x-_", "ami-x- ami-y", "sami-1 ami-2",
		// group at end of line and candidates that fail first.
		"group ", "group", "group  x", "the group ", "group \tx group y", "subgroup g1", "group\xff",
		"group \xffz", "group é", "group a.b. 3 of 4", "group \vx",
		// the progress pattern: boundaries, plural, failing candidates.
		"1 of 2 instance", "1 of 2 instances", "1 of 2 instancesX", "1 of 2 instance_", "1 of 2 instances.",
		"x1 of 2 instances", "_1 of 2 instances", "1 of 2x instances", "of 2 instances", "1 of  instances",
		"1 of 2 instancess", "a1 of 2 instances then 3 of 4 instances", "1 of 2 inst 3 of 4 instance",
		"12 of 34 instances", "1 of 2 of 3 instances", " of ", "1 of ", "é1 of 2 instances", "\xff1 of 2 instance\xff",
		"0 of 0 instancesé", "1 of 2 instance-s",
		// Sorted.
		"Sorted instances", "Sorted 4 instance", "Sorted 4 instancesX", "Sorted Sorted 4 instances",
		"Sorted x Sorted 12 instances", "XSorted 3 instances", "Sorted 3  instances",
		"", " ", "\xff\xfe", strings.Repeat("i-a", 200),
	}
	for _, l := range append([]string(nil), lines...) {
		if l == "" {
			continue
		}
		lines = append(lines, strings.ToUpper(l), l[1:], l[:len(l)-1], l+" "+l)
	}
	return lines
}

func checkExtract(t *testing.T, body string) {
	t.Helper()
	for i, ref := range referenceExtractors {
		x := &extractors[i]
		want := ref.re.FindStringSubmatch(body)
		got, ok := x.scan(body)
		if ok != (want != nil) {
			t.Fatalf("%s on %q: scanner found %v, reference %q", x.name, body, ok, want)
		}
		for g := range x.fields {
			if ok && got[g] != want[g+1] {
				t.Fatalf("%s on %q: field %s = %q, reference %q", x.name, body, x.fields[g], got[g], want[g+1])
			}
		}
	}
}

func TestExtractEqualsReference(t *testing.T) {
	if len(extractors) != len(referenceExtractors) {
		t.Fatalf("%d extractors, %d references", len(extractors), len(referenceExtractors))
	}
	for i, ref := range referenceExtractors {
		x := extractors[i]
		if x.name != ref.re.String() || !slices.Equal(x.fields, ref.fields) {
			t.Fatalf("extractor %d is %s %v, reference %s %v", i, x.name, x.fields, ref.re, ref.fields)
		}
	}
	for _, body := range extractCorpus() {
		checkExtract(t, body)
	}
}

func FuzzExtractEqualsReference(f *testing.F) {
	for _, body := range extractCorpus() {
		f.Add(body)
	}
	f.Fuzz(checkExtract)
}

// TestExtractorsDoNotAllocate pins each of the five scanners at zero
// allocations over the corpus: a capture is a substring of the body and
// the match array is returned by value.
func TestExtractorsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	corpus := extractCorpus()
	for _, x := range extractors {
		if n := testing.AllocsPerRun(10, func() {
			for _, body := range corpus {
				x.scan(body)
			}
		}); n != 0 {
			t.Errorf("%s allocates %.1f times over the corpus", x.name, n)
		}
	}
}
