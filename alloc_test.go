package poddiagnosis

import (
	"testing"
	"time"

	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/pipeline"
	"poddiagnosis/internal/process"
)

// logPipelineAllocs is what BenchmarkLogPipeline's 21-line trace
// allocates through pipeline.Process: nothing. The annotated event is a
// value copy carrying its annotations inline (the node's shared Note, the
// extracted values as offsets into the message, the model's shared tag
// slice); the Asgard timestamp parse, classification, field extraction
// and the memory sink add none.
const logPipelineAllocs = 0

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
