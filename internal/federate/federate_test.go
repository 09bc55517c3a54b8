package federate

import (
	"reflect"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/simaws"
)

// TestWatchRequestOptions applies each of the request's seven fields on
// its own to a fresh Manager and checks the registered session: the
// summary for what it reports, the snapshot for the matching modes,
// spec override and detection cap it does not.
func TestWatchRequestOptions(t *testing.T) {
	bus := logging.NewBus()
	defer bus.Close()
	cloud := simaws.New(clock.NewScaled(100, time.Unix(0, 0)), simaws.FastProfile())
	base := core.Expectation{ASGName: "pm--asg", ClusterSize: 3}
	const spec = "on step8 assert asg-instance-count want={n}\n"
	cases := []struct {
		name  string
		req   WatchRequest
		nOpts int
		check func(t *testing.T, sum core.SessionSummary, snap *core.SessionSnapshot)
	}{
		{"zero", WatchRequest{Expect: base}, 0, func(t *testing.T, sum core.SessionSummary, snap *core.SessionSnapshot) {
			if sum.ID != "op-1" || len(sum.Instances) != 0 || snap.MatchAny || snap.MatchASG ||
				snap.SpecText != "" || snap.MaxDetections != 64 {
				t.Errorf("defaults not kept: %+v / %+v", sum, snap)
			}
		}},
		{"id", WatchRequest{ID: "named-op", Expect: base}, 1, func(t *testing.T, sum core.SessionSummary, _ *core.SessionSnapshot) {
			if sum.ID != "named-op" {
				t.Errorf("id = %q", sum.ID)
			}
		}},
		{"expect", WatchRequest{Expect: core.Expectation{ASGName: "x--asg", ELBName: "x-elb", ClusterSize: 5, MinInService: 2}}, 0,
			func(t *testing.T, sum core.SessionSummary, _ *core.SessionSnapshot) {
				want := core.Expectation{ASGName: "x--asg", ELBName: "x-elb", ClusterSize: 5, MinInService: 2}
				if sum.Expect != want {
					t.Errorf("expect = %+v", sum.Expect)
				}
			}},
		{"instanceIds", WatchRequest{Expect: base, InstanceIDs: []string{"task-a"}}, 1, func(t *testing.T, sum core.SessionSummary, snap *core.SessionSnapshot) {
			if !reflect.DeepEqual(sum.Instances, []string{"task-a"}) || !reflect.DeepEqual(snap.Bound, []string{"task-a"}) {
				t.Errorf("instances = %v, bound = %v", sum.Instances, snap.Bound)
			}
		}},
		{"matchAsg", WatchRequest{Expect: base, MatchASG: true}, 1, func(t *testing.T, _ core.SessionSummary, snap *core.SessionSnapshot) {
			if !snap.MatchASG || snap.MatchAny {
				t.Errorf("matchAsg = %v, matchAny = %v", snap.MatchASG, snap.MatchAny)
			}
		}},
		{"matchAny", WatchRequest{Expect: base, MatchAny: true}, 1, func(t *testing.T, _ core.SessionSummary, snap *core.SessionSnapshot) {
			if !snap.MatchAny || snap.MatchASG {
				t.Errorf("matchAny = %v, matchAsg = %v", snap.MatchAny, snap.MatchASG)
			}
		}},
		{"assertionSpec", WatchRequest{Expect: base, AssertionSpec: spec}, 1, func(t *testing.T, _ core.SessionSummary, snap *core.SessionSnapshot) {
			if snap.SpecText != spec {
				t.Errorf("spec = %q", snap.SpecText)
			}
		}},
		{"maxDetections", WatchRequest{Expect: base, MaxDetections: 7}, 1, func(t *testing.T, _ core.SessionSummary, snap *core.SessionSnapshot) {
			if snap.MaxDetections != 7 {
				t.Errorf("maxDetections = %d", snap.MaxDetections)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.req.Options()
			if len(opts) != tc.nOpts {
				t.Fatalf("options = %d, want %d", len(opts), tc.nOpts)
			}
			mgr, err := core.NewManager(core.ManagerConfig{Cloud: cloud, Bus: bus})
			if err != nil {
				t.Fatal(err)
			}
			sess, err := mgr.Watch(tc.req.Expect, opts...)
			if err != nil {
				t.Fatal(err)
			}
			sum := sess.Summary()
			if sum.State != core.SessionActive || sum.Detections != 0 {
				t.Errorf("summary = %+v", sum)
			}
			snap, err := mgr.ExportSession(sess.ID())
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, sum, snap)
		})
	}
}
