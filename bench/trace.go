package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// span is one call from the benchmark into a layer. Spans come from the
// benchmark's own files only — around the calls it makes — never from
// inside the program.
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Parent is the index of the span that caused this one, -1 for a root.
	Parent int `json:"parent"`
	// Op is the operation (or probe) the call belongs to.
	Op string `json:"op,omitempty"`
	// Calls is how many layer calls the span covers (batch probes cover
	// more than one); per-call figures divide by it.
	Calls int `json:"calls"`
	// Mallocs is the heap-object count over the span, filled only by an
	// allocation pass (see tracer.allocs).
	Mallocs uint64 `json:"mallocs,omitempty"`

	mallocs0 uint64
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time: nesting is the order of begin/end calls. A nil
// tracer is valid and records nothing, so call sites never branch on
// whether tracing is on.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	// allocs makes every span read the heap-object counter at both ends.
	// ReadMemStats stops the world, so an allocation pass yields counts
	// only; its timings are discarded.
	allocs bool
	ms     runtime.MemStats
}

func newTracer(allocs bool) *tracer {
	return &tracer{t0: wallNow(), allocs: allocs}
}

// begin opens a span under the innermost open one and returns its handle
// (-1 on a nil tracer).
func (t *tracer) begin(name, op string) int {
	return t.beginN(name, op, 1)
}

func (t *tracer) beginN(name, op string, calls int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	sp := span{Name: name, Parent: parent, Op: op, Calls: calls}
	if t.allocs {
		runtime.ReadMemStats(&t.ms)
		sp.mallocs0 = t.ms.Mallocs
	}
	id := len(t.spans)
	t.spans = append(t.spans, sp)
	t.stack = append(t.stack, id)
	t.spans[id].Start = int64(wallSince(t.t0))
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	sp := &t.spans[id]
	sp.End = int64(wallSince(t.t0))
	if t.allocs {
		runtime.ReadMemStats(&t.ms)
		sp.Mallocs = t.ms.Mallocs - sp.mallocs0
	}
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval its direct children cover. Children are clipped to the parent
// and merged first, so overlapping children are not subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] = sp.End - sp.Start - covered(spans, children[i], sp.Start, sp.End)
	}
	return self
}

// covered is the length of the union of the given spans' intervals within
// [lo, hi].
func covered(spans []span, ids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := spans[id].Start, spans[id].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// selfMallocs is the allocation analogue of selfTimes: a span's heap
// objects minus its direct children's.
func selfMallocs(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] += int64(sp.Mallocs)
		if sp.Parent >= 0 {
			self[sp.Parent] -= int64(sp.Mallocs)
		}
	}
	return self
}

// layerStat aggregates one layer's spans.
type layerStat struct {
	calls  int
	selfNS []float64 // self time per call, one entry per span
	// totalNS is Σ self time with each span clipped to the layer's p99: a
	// goroutine preempted or stopped for GC inside a span was not doing
	// the layer's work. What the clip hides is what maxNS is for.
	totalNS float64
	maxNS   float64 // longest single span per call: where a rare stall shows
	allocs  float64 // Σ self heap objects (allocation pass only)
}

func layerStats(spans []span) map[string]*layerStat {
	self, mall := selfTimes(spans), selfMallocs(spans)
	out := make(map[string]*layerStat)
	weights := make(map[string][]float64)
	for i, sp := range spans {
		st := out[sp.Name]
		if st == nil {
			st = &layerStat{}
			out[sp.Name] = st
		}
		calls := sp.Calls
		if calls < 1 {
			calls = 1
		}
		st.calls += calls
		st.selfNS = append(st.selfNS, float64(self[i])/float64(calls))
		weights[sp.Name] = append(weights[sp.Name], float64(calls))
		if d := float64(sp.End-sp.Start) / float64(calls); d > st.maxNS {
			st.maxNS = d
		}
		st.allocs += float64(mall[i])
	}
	for name, st := range out {
		clip := quantile(st.selfNS, 0.99)
		for i, v := range st.selfNS {
			if v > clip {
				v = clip
			}
			st.totalNS += v * weights[name][i]
		}
	}
	return out
}

// writeSpans dumps the spans as JSON.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
