package assertspec

import (
	"strings"
	"testing"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/process"
)

// processScaleOutSpecText references the scale-out operation's
// specification, proving the two packages compose.
const processScaleOutSpecText = process.ScaleOutSpecText

func TestParseDefaultSpec(t *testing.T) {
	spec := DefaultSpec()
	if got := len(spec.Bindings()); got != 17 {
		t.Errorf("bindings = %d", got)
	}
	if got := len(spec.ByStep("step7")); got != 6 {
		t.Errorf("step7 bindings = %d", got)
	}
	if got := len(spec.ByStep("step8")); got != 6 {
		t.Errorf("step8 bindings = %d", got)
	}
	if got := len(spec.Periodic()); got != 1 {
		t.Errorf("periodic bindings = %d", got)
	}
	if got := len(spec.TimeoutsFor("step6")); got != 1 {
		t.Errorf("step6 timeouts = %d", got)
	}
	if got := len(spec.ByStep("step1")); got != 0 {
		t.Errorf("step1 bindings = %d", got)
	}
}

func TestParseLineForms(t *testing.T) {
	src := `
# comment and blank lines are skipped

on step3 assert asg-instance-count want=4 window=10m
every 45s assert elb-instance-count want={min}
after step5 timeout assert asg-version-count want={next}
`
	spec, err := Parse(src, assertion.DefaultRegistry())
	if err != nil {
		t.Fatal(err)
	}
	bs := spec.Bindings()
	if len(bs) != 3 {
		t.Fatalf("bindings = %d", len(bs))
	}
	if bs[0].Kind != TriggerStep || bs[0].StepID != "step3" ||
		bs[0].CheckID != "asg-instance-count" ||
		bs[0].Params["want"] != "4" || bs[0].Params["window"] != "10m" {
		t.Errorf("binding 0 = %+v", bs[0])
	}
	if bs[1].Kind != TriggerPeriodic || bs[1].Every != 45*time.Second {
		t.Errorf("binding 1 = %+v", bs[1])
	}
	if bs[2].Kind != TriggerStepTimeout || bs[2].StepID != "step5" {
		t.Errorf("binding 2 = %+v", bs[2])
	}
	if bs[0].Line != 4 || bs[1].Line != 5 || bs[2].Line != 6 {
		t.Errorf("source lines = %d,%d,%d", bs[0].Line, bs[1].Line, bs[2].Line)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty", "", "no bindings"},
		{"comments only", "# nothing\n", "no bindings"},
		{"bad head", "when step1 assert x", "'on', 'every' or 'after'"},
		{"missing step", "on", "expected step id"},
		{"missing assert", "on step1 evaluate x", "expected 'assert'"},
		{"missing check", "on step1 assert", "check id"},
		{"bad duration", "every soon assert asg-instance-count", "invalid duration"},
		{"negative duration", "every -5s assert asg-instance-count", "invalid duration"},
		{"missing timeout kw", "after step5 assert x", "expected 'timeout'"},
		{"bad param", "on step1 assert asg-instance-count want", "malformed parameter"},
		{"empty key", "on step1 assert asg-instance-count =v", "malformed parameter"},
		{"unknown check", "on step1 assert no-such-check", "unknown check"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src, assertion.DefaultRegistry())
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %q missing %q", tc.name, err, tc.want)
		}
	}
}

func TestParseWithoutRegistrySkipsCheckValidation(t *testing.T) {
	spec, err := Parse("on step1 assert totally-custom-check", nil)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Bindings()[0].CheckID != "totally-custom-check" {
		t.Fatal("check id lost")
	}
}

func TestResolveSubstitutesAndSkips(t *testing.T) {
	b := Binding{
		CheckID: "asg-version-count",
		Params:  assertion.Params{"want": "{progress}", "extra": "literal"},
	}
	base := assertion.Params{"asgid": "g"}
	params, ok := b.Resolve(base, nil, map[string]string{"progress": "3"})
	if !ok {
		t.Fatal("resolution failed")
	}
	if params["want"] != "3" || params["extra"] != "literal" || params["asgid"] != "g" {
		t.Errorf("params = %v", params)
	}
	// Base untouched.
	if _, exists := base["want"]; exists {
		t.Error("Resolve mutated base")
	}
	// Unresolvable variable: the binding is skipped.
	if _, ok := b.Resolve(base, nil, map[string]string{}); ok {
		t.Error("unresolved placeholder accepted")
	}
}

func TestResolveNoParams(t *testing.T) {
	b := Binding{CheckID: "x"}
	params, ok := b.Resolve(assertion.Params{"a": "1"}, assertion.Params{"b": "2"}, nil)
	if !ok || params["a"] != "1" || params["b"] != "2" {
		t.Fatalf("params = %v ok = %v", params, ok)
	}
}

func TestTriggerKindString(t *testing.T) {
	for k, want := range map[TriggerKind]string{
		TriggerStep: "on-step", TriggerPeriodic: "periodic",
		TriggerStepTimeout: "step-timeout", TriggerKind(0): "unknown",
	} {
		if k.String() != want {
			t.Errorf("%d = %q", k, k.String())
		}
	}
}

func TestScaleOutSpecParses(t *testing.T) {
	spec, err := Parse(processScaleOutSpecText, assertion.DefaultRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.ByStep("sostep5")) != 2 {
		t.Errorf("sostep5 bindings = %d", len(spec.ByStep("sostep5")))
	}
	if len(spec.TimeoutsFor("sostep3")) != 1 {
		t.Errorf("sostep3 timeouts = %d", len(spec.TimeoutsFor("sostep3")))
	}
}
