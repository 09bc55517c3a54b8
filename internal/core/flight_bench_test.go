package core

import (
	"fmt"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/simaws"
)

// ingestTrace is the per-line ingest workload: the bodies of one clean
// 4-instance rolling upgrade, the same shape the bus delivers.
func ingestTrace() []string {
	lines := []string{
		"Starting rolling upgrade of group pm--asg to image ami-new",
		"Created launch configuration pm--asg-lc-ami-new with image ami-new",
		"Updated group pm--asg to launch configuration pm--asg-lc-ami-new",
		"Sorted 4 instances for replacement",
	}
	for i := 0; i < 4; i++ {
		lines = append(lines,
			fmt.Sprintf("Removed and deregistered instance i-%04d from ELB pm-elb", i),
			fmt.Sprintf("Terminating old instance i-%04d", i),
			"Waiting for group pm--asg to start a new instance",
			fmt.Sprintf("Instance pm on i-9%03d is ready for use. %d of 4 instance relaunches done.", i, i+1),
		)
	}
	return append(lines, "Rolling upgrade task completed")
}

// benchIngest measures the per-line session ingest hot path — evidence
// recording plus conformance token replay — with the flight recorder on
// or off. Assertions are disabled so no cloud calls ride along: the
// benchmark isolates exactly the code the recorder adds to.
func benchIngest(b *testing.B, disableFlight bool) {
	b.Helper()
	clk := clock.NewScaled(1000, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	bus := logging.NewBus()
	cloud := simaws.New(clk, simaws.FastProfile(), simaws.WithSeed(1), simaws.WithBus(bus))
	cloud.Start()
	mgr, err := NewManager(ManagerConfig{
		Cloud: cloud, Bus: bus,
		DisableAssertions: true,
		DisableFlight:     disableFlight,
	})
	if err != nil {
		b.Fatal(err)
	}
	mgr.Start()
	b.Cleanup(func() { mgr.Stop(); cloud.Stop(); bus.Close() })
	sess, err := mgr.Watch(Expectation{ASGName: "pm--asg", ClusterSize: 4}, BindInstance("t"))
	if err != nil {
		b.Fatal(err)
	}

	lines := ingestTrace()
	evs := make([]logging.Event, len(lines))
	now := clk.Now()
	for i, l := range lines {
		evs[i] = logging.Event{
			Timestamp: now, Type: logging.TypeOperation,
			Message: l, Seq: uint64(i + 1), CauseID: uint64(i + 1),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, line := range lines {
			sess.OnConformance("t", line, evs[j])
		}
	}
	b.ReportMetric(float64(len(lines)), "events/op")
}

// BenchmarkIngestFlightRecorder compares the session ingest hot path
// with the causal flight recorder enabled versus disabled; the recorder
// must stay within a few percent of the disabled path (BENCH_ingest.json
// records the measured overhead, CI runs the smoke variant).
func BenchmarkIngestFlightRecorder(b *testing.B) {
	b.Run("recorder=on", func(b *testing.B) { benchIngest(b, false) })
	b.Run("recorder=off", func(b *testing.B) { benchIngest(b, true) })
}
