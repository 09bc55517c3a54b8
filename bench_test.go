// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// exists per table/figure (see DESIGN.md's per-experiment index), plus the
// ablations DESIGN.md calls out. Simulated-time results are exposed as
// custom metrics (sim-ms/op, percentages), since wall-clock nanoseconds of
// a scaled simulation are not the quantity the paper reports.
package poddiagnosis

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/conformance"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/experiment"
	"poddiagnosis/internal/faultinject"
	"poddiagnosis/internal/faulttree"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/mining"
	"poddiagnosis/internal/pipeline"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/rest"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// happyTrace builds the log lines of one clean n-instance upgrade.
func happyTrace(n int) []string {
	lines := []string{
		"Starting rolling upgrade of group pm--asg to image ami-new",
		"Created launch configuration pm--asg-lc-ami-new with image ami-new",
		"Updated group pm--asg to launch configuration pm--asg-lc-ami-new",
		fmt.Sprintf("Sorted %d instances for replacement", n),
	}
	for i := 0; i < n; i++ {
		lines = append(lines,
			fmt.Sprintf("Removed and deregistered instance i-%04d from ELB pm-elb", i),
			fmt.Sprintf("Terminating old instance i-%04d", i),
			"Waiting for group pm--asg to start a new instance",
			fmt.Sprintf("Instance pm on i-9%03d is ready for use. %d of %d instance relaunches done.", i, i+1, n),
		)
	}
	return append(lines, "Rolling upgrade task completed")
}

// BenchmarkConformanceCheck measures single-event token replay — the
// paper's "responded on average in about 10 ms" figure covers the whole
// service call; this isolates the algorithm (E2).
func BenchmarkConformanceCheck(b *testing.B) {
	model := process.RollingUpgradeModel()
	trace := happyTrace(4)
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checker := conformance.NewChecker(model)
		for _, line := range trace {
			checker.Check("t", line, now)
		}
	}
	b.ReportMetric(float64(len(trace)), "events/op")
}

// BenchmarkProcessMining measures model discovery from the logs of 20
// clean 4-instance upgrades (E1, Figure 2).
func BenchmarkProcessMining(b *testing.B) {
	var lines []mining.Line
	base := time.Date(2013, 10, 24, 11, 0, 0, 0, time.UTC)
	for t := 0; t < 20; t++ {
		ts := base.Add(time.Duration(t) * time.Hour)
		for i, body := range happyTrace(4) {
			lines = append(lines, mining.Line{
				Timestamp:  ts.Add(time.Duration(i) * 20 * time.Second),
				InstanceID: fmt.Sprintf("trace-%d", t),
				Body:       body,
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mining.NewMiner().Mine(lines, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if !res.HasLoop() {
			b.Fatal("loop lost")
		}
	}
	b.ReportMetric(float64(len(lines)), "lines/op")
}

// BenchmarkLogPipeline measures local log processor throughput (the
// Logstash-equivalent path of Figure 3).
func BenchmarkLogPipeline(b *testing.B) {
	model := process.RollingUpgradeModel()
	proc := pipeline.New(model, logging.NewMemorySink(), pipeline.Triggers{})
	ts := time.Now()
	events := make([]logging.Event, 0, 18)
	for _, body := range happyTrace(4) {
		events = append(events, logging.Event{
			Timestamp: ts, Type: logging.TypeOperation,
			Fields:  map[string]string{"taskid": "t"},
			Message: logging.FormatOperationLine(ts, "t", body),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ev := range events {
			proc.Process(ev)
		}
	}
	b.ReportMetric(float64(len(events)), "events/op")
}

// benchCloud deploys a cluster on a fast cloud for component benchmarks.
func benchCloud(b *testing.B, profile simaws.Profile, scale float64) (*simaws.Cloud, *upgrade.Cluster, *consistentapi.Client) {
	b.Helper()
	clk := clock.NewScaled(scale, time.Unix(0, 0))
	cloud := simaws.New(clk, profile, simaws.WithSeed(1))
	cloud.Start()
	b.Cleanup(cloud.Stop)
	ctx := context.Background()
	cluster, err := upgrade.Deploy(ctx, cloud, "pm", 2, "v1")
	if err != nil {
		b.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 10*time.Minute); err != nil {
		b.Fatal(err)
	}
	client := consistentapi.New(cloud, consistentapi.Config{
		MaxAttempts: 4, InitialBackoff: 500 * time.Millisecond,
		MaxBackoff: 4 * time.Second, CallTimeout: 45 * time.Second,
	})
	return cloud, cluster, client
}

func benchParams(cluster *upgrade.Cluster) assertion.Params {
	return assertion.Params{
		assertion.ParamASG:          cluster.ASGName,
		assertion.ParamELB:          cluster.ELBName,
		assertion.ParamAMI:          cluster.ImageID,
		assertion.ParamKeyPair:      cluster.KeyName,
		assertion.ParamSG:           cluster.SGName,
		assertion.ParamInstanceType: "m1.small",
		assertion.ParamVersion:      cluster.Version,
		assertion.ParamWant:         "2",
		assertion.ParamLC:           cluster.LCName,
	}
}

// BenchmarkAssertionEvaluation measures one high-level assertion through
// the consistent API layer under paper-like latency; sim-ms/op is the
// simulated evaluation time.
func BenchmarkAssertionEvaluation(b *testing.B) {
	profile := simaws.PaperProfile()
	profile.StaleProb = 0
	_, cluster, client := benchCloud(b, profile, 150)
	eval := assertion.NewEvaluator(client, assertion.DefaultRegistry(), nil)
	params := benchParams(cluster)
	ctx := context.Background()
	var sim time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.Evaluate(ctx, assertion.CheckASGVersionCount, params, assertion.Trigger{})
		if !res.Passed() {
			b.Fatalf("assertion failed: %s %s", res.Message, res.Err)
		}
		sim += res.Duration
	}
	b.ReportMetric(float64(sim.Milliseconds())/float64(b.N), "sim-ms/op")
}

// BenchmarkDiagnosisTime regenerates the Figure 6 quantity (E4): the
// simulated duration of one fault-tree diagnosis of a wrong-AMI fault,
// with paper-like API latency.
func BenchmarkDiagnosisTime(b *testing.B) {
	profile := simaws.PaperProfile()
	profile.StaleProb = 0
	cloud, cluster, client := benchCloud(b, profile, 150)
	ctx := context.Background()
	rogueAMI, _ := cloud.RegisterImage(ctx, "rogue", "v9", nil)
	_ = cloud.CreateLaunchConfiguration(ctx, simaws.LaunchConfig{
		Name: "rogue-lc", ImageID: rogueAMI, KeyName: cluster.KeyName,
		SecurityGroups: []string{cluster.SGName}, InstanceType: "m1.small",
	})
	_ = cloud.UpdateAutoScalingGroup(ctx, cluster.ASGName, "rogue-lc", -1, -1, -1)

	eval := assertion.NewEvaluator(client, assertion.DefaultRegistry(), nil)
	engine := diagnosis.NewEngine(faulttree.DefaultCatalog(), eval, nil, diagnosis.Options{})
	req := diagnosis.Request{
		AssertionID:       assertion.CheckASGVersionCount,
		Source:            diagnosis.SourceAssertion,
		ProcessInstanceID: "bench",
		StepID:            process.StepNewReady,
		Params:            benchParams(cluster),
	}
	var sim time.Duration
	var tests int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := engine.Diagnose(ctx, req)
		if !d.HasCause("wrong-ami") {
			b.Fatalf("diagnosis failed: %s", d.Conclusion)
		}
		sim += d.Duration
		tests += len(d.TestsRun)
	}
	b.ReportMetric(float64(sim.Milliseconds())/float64(b.N), "sim-ms/op")
	b.ReportMetric(float64(tests)/float64(b.N), "tests/op")
}

// BenchmarkAblationPruning is ablation A1: fault-tree diagnosis with and
// without process-context pruning, comparing diagnosis tests executed.
func BenchmarkAblationPruning(b *testing.B) {
	for _, tc := range []struct {
		name string
		opts diagnosis.Options
	}{
		{"pruned", diagnosis.Options{ContinueAfterConfirm: true}},
		{"unpruned", diagnosis.Options{ContinueAfterConfirm: true, DisablePruning: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			profile := simaws.FastProfile()
			_, cluster, client := benchCloud(b, profile, 1000)
			eval := assertion.NewEvaluator(client, assertion.DefaultRegistry(), nil)
			engine := diagnosis.NewEngine(faulttree.DefaultCatalog(), eval, nil, tc.opts)
			req := diagnosis.Request{
				AssertionID: assertion.CheckASGVersionCount,
				StepID:      process.StepUpdateLC,
				Params:      benchParams(cluster),
			}
			ctx := context.Background()
			var tests, faults int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := engine.Diagnose(ctx, req)
				tests += len(d.TestsRun)
				faults += d.PotentialFaults
			}
			b.ReportMetric(float64(tests)/float64(b.N), "tests/op")
			b.ReportMetric(float64(faults)/float64(b.N), "candidates/op")
		})
	}
}

// BenchmarkAblationConsistentAPI is ablation A3: a count assertion under
// heavy eventual consistency, with the retry layer on vs off, reporting
// the false-failure rate.
func BenchmarkAblationConsistentAPI(b *testing.B) {
	for _, tc := range []struct {
		name        string
		maxAttempts int
	}{
		{"retries-on", 5},
		{"retries-off", 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			profile := simaws.FastProfile()
			profile.StaleProb = 0.6
			profile.StaleLag = clock.Fixed(400 * time.Millisecond)
			profile.TickInterval = 20 * time.Millisecond
			clk := clock.NewScaled(1000, time.Unix(0, 0))
			cloud := simaws.New(clk, profile, simaws.WithSeed(9))
			cloud.Start()
			b.Cleanup(cloud.Stop)
			ctx := context.Background()
			cluster, err := upgrade.Deploy(ctx, cloud, "pm", 2, "v1")
			if err != nil {
				b.Fatal(err)
			}
			if err := cluster.WaitReady(ctx, cloud, 10*time.Minute); err != nil {
				b.Fatal(err)
			}
			client := consistentapi.New(cloud, consistentapi.Config{
				MaxAttempts: tc.maxAttempts, InitialBackoff: 200 * time.Millisecond,
				MaxBackoff: 2 * time.Second, CallTimeout: 30 * time.Second,
			})
			eval := assertion.NewEvaluator(client, assertion.DefaultRegistry(), nil)
			// Read-after-write: flip the ASG between two launch
			// configurations and immediately assert the new AMI is in
			// effect. Stale reads (60% within a 400ms-sim window) return
			// the previous configuration; only the retry layer masks
			// them.
			amiB, err := cloud.RegisterImage(ctx, "pm-b", "vb", nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := cloud.CreateLaunchConfiguration(ctx, simaws.LaunchConfig{
				Name: "lc-b", ImageID: amiB, KeyName: cluster.KeyName,
				SecurityGroups: []string{cluster.SGName}, InstanceType: "m1.small",
			}); err != nil {
				b.Fatal(err)
			}
			flips := []struct{ lc, ami string }{
				{cluster.LCName, cluster.ImageID},
				{"lc-b", amiB},
			}
			falseFails := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flip := flips[i%2]
				if err := cloud.UpdateAutoScalingGroup(ctx, cluster.ASGName, flip.lc, -1, -1, -1); err != nil {
					b.Fatal(err)
				}
				res := eval.Evaluate(ctx, assertion.CheckASGUsesAMI, assertion.Params{
					assertion.ParamASG: cluster.ASGName,
					assertion.ParamAMI: flip.ami,
				}, assertion.Trigger{})
				if !res.Passed() {
					falseFails++
				}
			}
			b.StopTimer()
			b.ReportMetric(100*float64(falseFails)/float64(b.N), "false-fail-%")
		})
	}
}

// miniCampaign runs a small evaluation campaign and reports the Table I
// metrics as benchmark metrics.
func miniCampaign(b *testing.B, cfg experiment.Config, specs []experiment.RunSpec) *experiment.Report {
	b.Helper()
	rep, err := experiment.RunSpecs(context.Background(), specs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkOverallMetrics regenerates the Table I quantities (E6) on a
// reduced campaign (one run per fault type per iteration).
func BenchmarkOverallMetrics(b *testing.B) {
	cfg := experiment.Config{RunsPerFault: 1, Seed: 7, Parallelism: 2, InterferenceProb: 0.25}
	var prec, rec, acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(7 + i)
		specs := experiment.Specs(cfg)
		rep := miniCampaign(b, cfg, specs)
		prec += rep.Overall.Precision()
		rec += rep.Overall.Recall()
		acc += rep.Overall.Accuracy()
	}
	b.ReportMetric(100*prec/float64(b.N), "precision-%")
	b.ReportMetric(100*rec/float64(b.N), "recall-%")
	b.ReportMetric(100*acc/float64(b.N), "accuracy-%")
}

// BenchmarkDetectionMetrics regenerates the Figure 7 per-fault quantities
// (E5) for one configuration fault and one resource fault per iteration.
func BenchmarkDetectionMetrics(b *testing.B) {
	for _, kind := range []faultinject.Kind{faultinject.KindAMIChanged, faultinject.KindAMIUnavailable} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			cfg := experiment.Config{RunsPerFault: 1, Parallelism: 1}
			var rec, acc float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				specs := []experiment.RunSpec{{ID: i, Fault: kind, ClusterSize: 4, Seed: int64(100 + i)}}
				rep := miniCampaign(b, cfg, specs)
				m := rep.PerFault[kind]
				rec += m.Recall()
				acc += m.Accuracy()
			}
			b.ReportMetric(100*rec/float64(b.N), "recall-%")
			b.ReportMetric(100*acc/float64(b.N), "accuracy-%")
		})
	}
}

// BenchmarkConformanceCoverage regenerates the §V.D observation (E3): the
// share of ELB-fault runs whose first detection is conformance-based vs a
// configuration fault (which conformance cannot see).
func BenchmarkConformanceCoverage(b *testing.B) {
	for _, kind := range []faultinject.Kind{faultinject.KindELBUnavailable, faultinject.KindKeyPairChanged} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			cfg := experiment.Config{RunsPerFault: 1, Parallelism: 1}
			confFirst := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				specs := []experiment.RunSpec{{ID: i, Fault: kind, ClusterSize: 4, Seed: int64(200 + i)}}
				rep := miniCampaign(b, cfg, specs)
				confFirst += rep.ConformanceFirstByFault[kind]
			}
			b.ReportMetric(100*float64(confFirst)/float64(b.N), "conformance-first-%")
		})
	}
}

// BenchmarkAblationTriggers is ablation A2: detection with both trigger
// families vs assertions-only vs conformance-only, reporting recall on an
// ELB fault (detectable by both) per iteration.
func BenchmarkAblationTriggers(b *testing.B) {
	for _, tc := range []struct {
		name string
		mut  func(*experiment.Config)
	}{
		{"both", func(*experiment.Config) {}},
		{"assertions-only", func(c *experiment.Config) { c.DisableConformance = true }},
		{"conformance-only", func(c *experiment.Config) { c.DisableAssertions = true }},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			cfg := experiment.Config{RunsPerFault: 1, Parallelism: 1}
			tc.mut(&cfg)
			detected := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				specs := []experiment.RunSpec{{
					ID: i, Fault: faultinject.KindELBUnavailable, ClusterSize: 4, Seed: int64(300 + i),
				}}
				rep := miniCampaign(b, cfg, specs)
				if rep.Runs[0].FaultDetected {
					detected++
				}
			}
			b.ReportMetric(100*float64(detected)/float64(b.N), "recall-%")
		})
	}
}

// BenchmarkFaultTreeOps measures pure tree instantiation + pruning.
func BenchmarkFaultTreeOps(b *testing.B) {
	repo := faulttree.DefaultRepository()
	tree := repo.Select(assertion.CheckASGVersionCount)[0]
	params := assertion.Params{
		assertion.ParamASG: "pm--asg", assertion.ParamWant: "4",
		assertion.ParamVersion: "v2", assertion.ParamAMI: "ami-1",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := tree.Instantiate(params).Prune(process.StepNewReady)
		if len(inst.PotentialRootCauses()) == 0 {
			b.Fatal("pruned everything")
		}
	}
}

// BenchmarkConformanceService measures the end-to-end conformance service
// call over HTTP — the quantity the paper reports as "responded on average
// in about 10 ms" when called locally (E2).
func BenchmarkConformanceService(b *testing.B) {
	srv := httptest.NewServer(rest.NewServer(
		conformance.NewChecker(process.RollingUpgradeModel()), nil, nil))
	defer srv.Close()
	client := rest.NewClient(srv.URL, nil)
	ctx := context.Background()
	trace := happyTrace(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := trace[i%len(trace)]
		if _, err := client.CheckConformance(ctx, rest.ConformanceRequest{
			TraceID: fmt.Sprintf("t%d", i/len(trace)), Line: line,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCloudTrail is ablation A4: diagnosability of a random
// instance termination under the three audit-trail regimes the paper
// discusses — no CloudTrail (§V.B), an idealized instant trail, and the
// real product's delayed delivery (§VII). Reported as the share of runs
// where the root cause was confirmed.
func BenchmarkAblationCloudTrail(b *testing.B) {
	for _, tc := range []struct {
		name  string
		trail bool
		delay time.Duration
	}{
		{"no-trail", false, 0},
		{"instant-trail", true, 0},
		{"delayed-15m", true, 15 * time.Minute},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			confirmed := 0
			for i := 0; i < b.N; i++ {
				profile := simaws.FastProfile()
				profile.BootTime = clock.Fixed(45 * time.Second)
				profile.TickInterval = 200 * time.Millisecond
				clk := clock.NewScaled(800, time.Unix(0, 0))
				cloud := simaws.New(clk, profile, simaws.WithSeed(int64(i+1)))
				if tc.trail {
					cloud.EnableAuditTrail(tc.delay)
				}
				cloud.Start()
				ctx := context.Background()
				cluster, err := upgrade.Deploy(ctx, cloud, "pm", 2, "v1")
				if err != nil {
					b.Fatal(err)
				}
				if err := cluster.WaitReady(ctx, cloud, 10*time.Minute); err != nil {
					b.Fatal(err)
				}
				insts, _ := cloud.DescribeInstances(ctx)
				_ = cloud.TerminateInstance(ctx, insts[0].ID)
				client := consistentapi.New(cloud, consistentapi.Config{
					MaxAttempts: 3, InitialBackoff: 250 * time.Millisecond,
					MaxBackoff: time.Second, CallTimeout: 20 * time.Second,
				})
				eval := assertion.NewEvaluator(client, assertion.DefaultRegistry(), nil)
				engine := diagnosis.NewEngine(faulttree.DefaultCatalog(), eval, nil, diagnosis.Options{})
				d := engine.Diagnose(ctx, diagnosis.Request{
					AssertionID: assertion.CheckASGInstanceCount,
					Source:      diagnosis.SourceAssertion,
					StepID:      process.StepNewReady,
					Params: assertion.Params{
						assertion.ParamASG:  cluster.ASGName,
						assertion.ParamELB:  cluster.ELBName,
						assertion.ParamWant: "2",
					},
				})
				if d.HasCause("unexpected-termination") {
					confirmed++
				}
				cloud.Stop()
			}
			b.ReportMetric(100*float64(confirmed)/float64(b.N), "confirmed-%")
		})
	}
}
