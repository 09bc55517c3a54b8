package poddiagnosis

import (
	"testing"
	"time"

	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/pipeline"
	"poddiagnosis/internal/process"
)

// logPipelineAllocs is what BenchmarkLogPipeline's 21-line trace
// allocates through pipeline.Process, 3 per line, all for the annotated
// copy of the event: its fields map (2) and its one tag slice, sized for
// the tags the line gets (1). The Asgard timestamp parse,
// classification, field extraction and the memory sink contribute none.
const logPipelineAllocs = 63

// TestLogPipelineAllocations pins BenchmarkLogPipeline's trace.
func TestLogPipelineAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	proc := pipeline.NewRouted(process.RollingUpgradeModel(), logging.NewMemorySink(), nil)
	events := pipelineEvents(time.Now())
	allocs := testing.AllocsPerRun(50, func() {
		for _, ev := range events {
			proc.Process(ev)
		}
	})
	if allocs != logPipelineAllocs {
		t.Errorf("the %d-line trace allocates %.0f times through Process, want %d", len(events), allocs, logPipelineAllocs)
	}
}

// conformanceCheckAllocs is what BenchmarkConformanceCheck's op
// allocates: the fresh checker and its instance map (2), the one
// instance's state and its fired counts (2), and the map's bucket the
// instance is stored in (1). A fit line allocates nothing.
const conformanceCheckAllocs = 5

// TestConformanceCheckAllocations pins BenchmarkConformanceCheck's trace.
func TestConformanceCheckAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	model := process.RollingUpgradeModel()
	trace := happyTrace(4)
	now := time.Now()
	if allocs := testing.AllocsPerRun(50, func() { replayFresh(model, trace, now) }); allocs != conformanceCheckAllocs {
		t.Errorf("a fresh checker over the %d-line trace allocates %.0f times, want %d", len(trace), allocs, conformanceCheckAllocs)
	}
}
