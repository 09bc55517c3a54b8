package mining

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// syntheticTrace produces the Asgard-style bodies of one clean upgrade
// replacing n instances, with realistic timing.
func syntheticTrace(instance string, n int, start time.Time) []Line {
	ts := start
	adv := func(d time.Duration) time.Time { ts = ts.Add(d); return ts }
	var out []Line
	add := func(body string, gap time.Duration) {
		out = append(out, Line{Timestamp: adv(gap), InstanceID: instance, Body: body})
	}
	add(fmt.Sprintf("Starting rolling upgrade of group pm--asg to image ami-%s", instance), 0)
	add(fmt.Sprintf("Created launch configuration pm--asg-lc-ami-%s with image ami-%s", instance, instance), 2*time.Second)
	add(fmt.Sprintf("Updated group pm--asg to launch configuration pm--asg-lc-ami-%s", instance), time.Second)
	add(fmt.Sprintf("Sorted %d instances for replacement", n), 2*time.Second)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("i-%04d%s", i, instance)
		add(fmt.Sprintf("Removed and deregistered instance %s from ELB pm-elb", id), 3*time.Second)
		add(fmt.Sprintf("Terminating old instance %s", id), 2*time.Second)
		add("Waiting for group pm--asg to start a new instance", time.Second)
		add(fmt.Sprintf("Instance pm on i-9%03d%s is ready for use. %d of %d instance relaunches done.", i, instance, i+1, n), 95*time.Second)
		add(fmt.Sprintf("Status: %d of %d instances replaced", i+1, n), time.Second)
	}
	add("Rolling upgrade task completed", 2*time.Second)
	return out
}

func syntheticLog(traces, n int) []Line {
	var lines []Line
	base := time.Date(2013, 10, 24, 11, 0, 0, 0, time.UTC)
	for t := 0; t < traces; t++ {
		lines = append(lines, syntheticTrace(fmt.Sprintf("%04d", t), n, base.Add(time.Duration(t)*time.Hour))...)
	}
	return lines
}

func TestMaskReplacesVariableTokens(t *testing.T) {
	cases := []struct{ in, wantGone string }{
		{"Instance pm on i-7df34041 is ready for use. 4 of 4 instance relaunches done.", "i-7df34041"},
		{"Starting rolling upgrade of group pm--asg to image ami-750c9e4f", "ami-750c9e4f"},
		{"Created launch configuration pm--asg-lc-ami-1 with image ami-1", "pm--asg-lc-ami-1"},
		{"Sorted 20 instances for replacement", "20"},
	}
	for _, tc := range cases {
		masked := Mask(tc.in)
		if strings.Contains(masked, tc.wantGone) {
			t.Errorf("Mask(%q) = %q still contains %q", tc.in, masked, tc.wantGone)
		}
		if !strings.Contains(masked, maskToken) {
			t.Errorf("Mask(%q) = %q has no mask token", tc.in, masked)
		}
	}
}

func TestTokenDistanceProperties(t *testing.T) {
	if d := tokenDistance("a b c", "a b c"); d != 0 {
		t.Errorf("identical distance = %f", d)
	}
	if d := tokenDistance("a b c", "x y z"); d != 1 {
		t.Errorf("disjoint distance = %f", d)
	}
	if d := tokenDistance("a b c d", "a b x d"); d != 0.25 {
		t.Errorf("one-substitution distance = %f", d)
	}
	// Property: symmetric and within [0,1].
	f := func(a, b string) bool {
		d1, d2 := tokenDistance(a, b), tokenDistance(b, a)
		return d1 == d2 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMineDiscoversRollingUpgradeShape(t *testing.T) {
	lines := syntheticLog(20, 4)
	res, err := NewMiner().Mine(lines, "mined-upgrade")
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces != 20 {
		t.Errorf("traces = %d", res.Traces)
	}
	// The 10 distinct activities of the upgrade (start, create LC, update
	// group, sort, deregister, terminate, wait, ready, status, completed)
	// should come out as ~10 clusters.
	if len(res.Clusters) < 9 || len(res.Clusters) > 12 {
		t.Errorf("cluster count = %d: %+v", len(res.Clusters), res.Clusters)
	}
	// The replacement loop must be visible as a cycle.
	if !res.HasLoop() {
		t.Error("no loop discovered")
	}
	// Single start and end activity.
	if len(res.StartActivities) != 1 || len(res.EndActivities) != 1 {
		t.Errorf("starts=%v ends=%v", res.StartActivities, res.EndActivities)
	}
}

func TestMinedModelClassifiesItsInput(t *testing.T) {
	lines := syntheticLog(5, 3)
	res, err := NewMiner().Mine(lines, "m")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if _, ok := res.Model.Classify(l.Body); !ok {
			t.Errorf("mined model cannot classify %q", l.Body)
		}
	}
}

func TestMinedModelMatchesGroundTruthMapping(t *testing.T) {
	// Every mined cluster regex should match lines of exactly one
	// ground-truth activity.
	lines := syntheticLog(10, 4)
	res, err := NewMiner().Mine(lines, "m")
	if err != nil {
		t.Fatal(err)
	}
	truth := process.RollingUpgradeModel()
	mapping := make(map[string]map[string]bool) // mined name -> truth ids
	for _, l := range lines {
		mined, ok1 := res.Model.Classify(l.Body)
		gt, ok2 := truth.Classify(l.Body)
		if !ok1 || !ok2 {
			continue
		}
		if mapping[mined.ID] == nil {
			mapping[mined.ID] = make(map[string]bool)
		}
		mapping[mined.ID][gt.ID] = true
	}
	if len(mapping) < 9 {
		t.Fatalf("only %d mined activities mapped", len(mapping))
	}
	for mined, gts := range mapping {
		if len(gts) != 1 {
			t.Errorf("mined activity %s maps to %d truth activities: %v", mined, len(gts), gts)
		}
	}
}

func TestMineTimingData(t *testing.T) {
	lines := syntheticLog(10, 3)
	res, err := NewMiner().Mine(lines, "m")
	if err != nil {
		t.Fatal(err)
	}
	// The wait-for-ASG step precedes a ~95s gap; its node must carry a
	// large mean duration.
	var waiting *process.Node
	for _, n := range res.Model.Activities() {
		if strings.Contains(n.Name, "waiting") || strings.Contains(n.Name, "Waiting") {
			waiting = n
		}
	}
	if waiting == nil {
		t.Fatal("no waiting activity discovered")
	}
	if waiting.MeanDuration < 60*time.Second {
		t.Errorf("waiting mean duration = %v", waiting.MeanDuration)
	}
}

func TestMineEmptyInput(t *testing.T) {
	if _, err := NewMiner().Mine(nil, "m"); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestDeriveNameAndRegex(t *testing.T) {
	name := deriveName("Starting rolling upgrade of group <*> to image <*>")
	if name != "starting-rolling-upgrade-group" {
		t.Errorf("name = %q", name)
	}
	re := regexFromTemplate("Sorted <*> instances for replacement")
	if !regexpMatch(re, "Sorted 17 instances for replacement") {
		t.Errorf("regex %q does not match", re)
	}
	if regexpMatch(re, "Terminating old instance i-1") {
		t.Errorf("regex %q over-matches", re)
	}
}

func regexpMatch(pattern, s string) bool {
	re, err := regexp.Compile(pattern)
	return err == nil && re.MatchString(s)
}

func TestRenderDFG(t *testing.T) {
	lines := syntheticLog(3, 2)
	res, _ := NewMiner().Mine(lines, "m")
	out := res.RenderDFG()
	if !strings.Contains(out, "directly-follows graph (3 traces)") {
		t.Errorf("render = %q", out)
	}
	if !strings.Contains(out, "->") {
		t.Error("no edges rendered")
	}
}

// TestMineFromRealUpgradeLogs runs actual upgrades on the simulator and
// mines the model from the captured logs — the full §III.A pipeline end to
// end.
func TestMineFromRealUpgradeLogs(t *testing.T) {
	clk := clock.NewScaled(1500, time.Date(2013, 10, 24, 11, 0, 0, 0, time.UTC))
	bus := logging.NewBus()
	defer bus.Close()
	profile := simaws.FastProfile()
	profile.BootTime = clock.Fixed(30 * time.Second)
	profile.TickInterval = time.Second
	cloud := simaws.New(clk, profile, simaws.WithSeed(3), simaws.WithBus(bus))
	cloud.Start()
	defer cloud.Stop()

	sink := logging.NewMemorySink()
	sub := bus.Subscribe(8192, logging.TypeFilter(logging.TypeOperation))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := range sub.C {
			sink.Write(e)
		}
	}()

	ctx := context.Background()
	cluster, err := upgrade.Deploy(ctx, cloud, "pm", 3, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	up := upgrade.NewUpgrader(cloud, bus)
	for i := 0; i < 3; i++ {
		ami, err := cloud.RegisterImage(ctx, fmt.Sprintf("pm-v%d", i+2), fmt.Sprintf("v%d", i+2), upgrade.AppServices)
		if err != nil {
			t.Fatal(err)
		}
		rep := up.Run(ctx, cluster.UpgradeSpec(fmt.Sprintf("task-%d", i), ami))
		if rep.Err != nil {
			t.Fatalf("upgrade %d: %v", i, rep.Err)
		}
	}
	sub.Cancel()
	<-done

	var lines []Line
	for _, ev := range sink.Events() {
		_, task, body, ok := logging.ParseOperationLine(ev.Message)
		if !ok {
			continue
		}
		lines = append(lines, Line{Timestamp: ev.Timestamp, InstanceID: task, Body: body})
	}
	if len(lines) < 30 {
		t.Fatalf("only %d lines captured", len(lines))
	}
	res, err := NewMiner().Mine(lines, "mined-from-sim")
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces != 3 {
		t.Errorf("traces = %d", res.Traces)
	}
	if !res.HasLoop() {
		t.Error("loop not discovered from real logs")
	}
	if len(res.Clusters) < 9 {
		t.Errorf("clusters = %d", len(res.Clusters))
	}
	// Mined patterns classify without a regexp (process.Scannable).
	for _, n := range res.Model.Activities() {
		for _, p := range n.Patterns {
			if !process.Scannable(p) {
				t.Errorf("mined pattern %q falls back to regexp", p)
			}
		}
	}
}
