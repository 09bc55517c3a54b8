// Package flight implements the causal flight recorder: a per-operation
// bounded ring of causally-linked evidence entries spanning the whole
// monitoring plane, from raw log events through conformance verdicts and
// detections to fault-tree test executions and confirmed causes.
//
// Every entry carries a recorder-unique ID plus the IDs of the entries
// that caused it, so a confirmed cause can be walked back to the exact
// log event that triggered the diagnosis. Rings are bounded per
// operation (oldest entries are overwritten, with a drop counter) and
// dropped together with session retention. A ring starts small and
// grows as entries arrive, up to its capacity, so the recorder's memory
// is O(entries held) — at most O(operations x capacity) — regardless of
// run length.
package flight

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/obs"
)

// Kind classifies a timeline entry. Only the registered kinds below are
// valid; podlint rule GO005 rejects call sites that invent new strings.
type Kind string

// Registered entry kinds, in causal pipeline order.
const (
	// KindLogEvent is a raw bus event routed to an operation.
	KindLogEvent Kind = "log.event"
	// KindStreamGap marks a reorder-buffer gap that flipped the
	// operation into Degraded mode.
	KindStreamGap Kind = "stream.gap"
	// KindConformance is a conformance-check verdict for one log line.
	KindConformance Kind = "conformance.verdict"
	// KindAssertion is an on-line assertion evaluation result.
	KindAssertion Kind = "assertion.result"
	// KindDetection is an admitted detection (an error worth diagnosing).
	KindDetection Kind = "detection"
	// KindDiagnosis is one fault-tree diagnosis run.
	KindDiagnosis Kind = "diagnosis.run"
	// KindTest is one resilience-wrapped on-demand test execution.
	KindTest Kind = "diagnosis.test"
	// KindCause is a confirmed root cause committed by a diagnosis run.
	KindCause Kind = "diagnosis.cause"
	// KindRemediationAction is a remediation action admitted for a
	// confirmed cause (fired, pending approval, or dry-run); it cites
	// the cause's plan path and chains to the cause entry.
	KindRemediationAction Kind = "remediation.action"
	// KindRemediationOutcome is the terminal result of a remediation
	// action (executed, failed, dry-run, or skipped), chained to its
	// remediation.action entry.
	KindRemediationOutcome Kind = "remediation.outcome"
	// KindHandoff marks a federation handoff: the operation's session
	// state — this ring included — was restored onto another manager
	// after its previous owner died or the member ring rebalanced. Its
	// parents are the restored instances' last log-event entries, so
	// post-handoff evidence chains walk through it back to pre-handoff
	// log events.
	KindHandoff Kind = "federation.handoff"
)

// Kinds returns every registered kind, in causal pipeline order.
func Kinds() []Kind {
	return []Kind{
		KindLogEvent, KindStreamGap, KindConformance, KindAssertion,
		KindDetection, KindDiagnosis, KindTest, KindCause,
		KindRemediationAction, KindRemediationOutcome, KindHandoff,
	}
}

// KnownKind reports whether k is a registered kind.
func KnownKind(k Kind) bool {
	for _, known := range Kinds() {
		if k == known {
			return true
		}
	}
	return false
}

// Entry is one causally-linked record in an operation's timeline.
type Entry struct {
	// ID is recorder-unique and monotonic, so within one operation the
	// ring's insertion order is also ID order.
	ID uint64 `json:"id"`
	// Parents are the IDs of the entries that caused this one. A raw
	// log event has no parents; everything else should have at least
	// one, terminating the chain at a log event or stream gap.
	Parents []uint64 `json:"parents,omitempty"`
	// Kind classifies the entry (see Kinds).
	Kind Kind `json:"kind"`
	// At is the simulated time the entry was recorded.
	At time.Time `json:"at"`
	// Seq is the bus per-stream sequence number of the underlying log
	// event, when the entry wraps one.
	Seq uint64 `json:"seq,omitempty"`
	// Cause is the bus causality ID stamped on the underlying event.
	Cause uint64 `json:"cause,omitempty"`
	// SpanID links the entry to the obs tracer span it was recorded
	// under, tying timelines and traces together.
	SpanID uint64 `json:"spanId,omitempty"`
	// Message is a one-line human-readable summary.
	Message string `json:"message,omitempty"`
	// Attrs carries structured detail (step, check, retries, ...). It
	// is read-only once recorded: recorders may share one map between
	// entries (every log.event of one instance cites the same
	// {"instance": id} map), so a reader that wants to change it copies
	// it first.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Timeline is the ordered, causally-linked evidence chain of one
// operation, as returned by Recorder.Timeline and the REST endpoint.
type Timeline struct {
	Operation string  `json:"operation"`
	Entries   []Entry `json:"entries"`
	// Dropped counts entries overwritten by the bounded ring; nonzero
	// means old parents may be missing from Entries.
	Dropped uint64 `json:"dropped,omitempty"`
}

var (
	mEntries = obs.Default.CounterVec("pod_flight_entries_total",
		"Flight-recorder entries recorded, by kind.", "kind")
	mDropped = obs.Default.Counter("pod_flight_dropped_total",
		"Flight-recorder entries overwritten by per-operation ring bounds.")
	mOps = obs.Default.Gauge("pod_flight_operations",
		"Operations currently tracked by the flight recorder.")
)

// mEntriesFor caches each registered kind's counter series: Record sits
// on the per-line ingest hot path and must not pay a labeled-vec lookup
// (and its variadic allocation) per entry.
var mEntriesFor = func() map[Kind]*obs.Counter {
	ks := Kinds()
	m := make(map[Kind]*obs.Counter, len(ks))
	for _, k := range ks {
		m[k] = mEntries.With(string(k))
	}
	return m
}()

// DefaultCapacity is the per-operation ring size used when the manager
// config leaves FlightCapacity zero.
const DefaultCapacity = 256

// minCapacity keeps rings large enough to hold at least one full
// detection->cause chain even under misconfiguration.
const minCapacity = 16

// initialEntries is the backing array a new ring starts with (or the
// capacity, if smaller): enough for a clean operation's whole trace (21
// entries on ingest_clean) and for a whole detection-to-remediation chain
// (14-17 on diagnose_storm), so rings grow only for operations that record
// more, such as those whose stream was lossy.
const initialEntries = 24

// Recorder owns the per-operation rings. All methods are safe for
// concurrent use; a nil *Recorder is a valid no-op recorder (every
// lookup returns a nil *Op, whose Record is itself a no-op), so call
// sites never branch on whether recording is enabled.
type Recorder struct {
	clk      clock.Clock
	capacity int
	ids      atomic.Uint64
	mu       sync.RWMutex
	ops      map[string]*Op
}

// NewRecorder returns a recorder stamping entry times from clk with the
// given per-operation ring capacity (0 means DefaultCapacity, floored
// at a small minimum).
func NewRecorder(clk clock.Clock, perOpCapacity int) *Recorder {
	if clk == nil {
		clk = clock.NewReal()
	}
	if perOpCapacity <= 0 {
		perOpCapacity = DefaultCapacity
	}
	if perOpCapacity < minCapacity {
		perOpCapacity = minCapacity
	}
	return &Recorder{clk: clk, capacity: perOpCapacity, ops: make(map[string]*Op)}
}

// Op returns the ring for the named operation, creating it on first
// use. A nil recorder returns nil, which is safe to record against.
func (r *Recorder) Op(operation string) *Op {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	o := r.ops[operation]
	r.mu.RUnlock()
	if o != nil {
		return o
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if o = r.ops[operation]; o == nil {
		o = &Op{rec: r, operation: operation, buf: make([]Entry, min(initialEntries, r.capacity))}
		r.ops[operation] = o
		mOps.Set(float64(len(r.ops)))
	}
	return o
}

// Drop discards the named operation's ring. Dropped rings already
// handed out keep accepting entries but are no longer queryable, so
// session GC bounds recorder memory without racing in-flight work.
func (r *Recorder) Drop(operation string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.ops, operation)
	mOps.Set(float64(len(r.ops)))
}

// Operations lists the tracked operation ids, sorted.
func (r *Recorder) Operations() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]string, 0, len(r.ops))
	for id := range r.ops {
		out = append(out, id)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Timeline snapshots one operation's entries oldest-first, optionally
// filtered to the given kinds. An unknown operation (or nil recorder)
// yields an empty timeline, never nil Entries.
func (r *Recorder) Timeline(operation string, kinds ...Kind) Timeline {
	tl := Timeline{Operation: operation, Entries: []Entry{}}
	if r == nil {
		return tl
	}
	r.mu.RLock()
	o := r.ops[operation]
	r.mu.RUnlock()
	if o == nil {
		return tl
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	tl.Dropped = o.dropped
	tl.Entries = o.snapshotLocked()
	if len(kinds) == 0 {
		return tl
	}
	set := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		set[k] = true
	}
	// Filter the fresh copy in place: it is this call's own.
	kept := tl.Entries[:0]
	for _, e := range tl.Entries {
		if set[e.Kind] {
			kept = append(kept, e)
		}
	}
	tl.Entries = kept
	return tl
}

// Op is one operation's bounded entry ring. Its backing array grows by
// doubling, capped at the recorder's capacity, until it holds capacity
// entries; only then does the ring wrap and overwrite its oldest entry.
type Op struct {
	rec       *Recorder
	operation string

	mu sync.Mutex
	// buf holds the entries; until the ring is full they are buf[:next]
	// and len(buf) only bounds how many fit before the next growth.
	buf     []Entry
	next    int
	full    bool
	dropped uint64
	// writes counts Record and Import calls; it is bumped inside the
	// critical section that changes buf, so a reader that sees a count
	// sees the entries behind it.
	writes atomic.Uint64
}

// Writes returns how many times the ring has been written (recorded
// into or imported over): a monotonic counter that changes whenever
// Timeline's answer may have. Zero for a nil ring.
func (o *Op) Writes() uint64 {
	if o == nil {
		return 0
	}
	return o.writes.Load()
}

// Operation returns the operation id the ring belongs to ("" for nil).
func (o *Op) Operation() string {
	if o == nil {
		return ""
	}
	return o.operation
}

// Record appends an entry, assigning and returning its ID. A zero At
// is stamped from the recorder clock. Calling Record on a nil *Op is a
// no-op returning 0, so disabled recording needs no call-site checks.
func (o *Op) Record(e Entry) uint64 {
	if o == nil {
		return 0
	}
	e.ID = o.rec.ids.Add(1)
	if e.At.IsZero() {
		e.At = o.rec.clk.Now()
	}
	if c := mEntriesFor[e.Kind]; c != nil {
		c.Inc()
	} else {
		mEntries.With(string(e.Kind)).Inc()
	}
	o.mu.Lock()
	if o.full {
		o.dropped++
		mDropped.Inc()
	}
	o.putLocked(e)
	o.writes.Add(1)
	o.mu.Unlock()
	return e.ID
}

// putLocked stores e at the ring's write position, growing the backing
// array when a ring that is not yet full runs out of room and wrapping
// once the ring holds capacity entries; o.mu must be held.
func (o *Op) putLocked(e Entry) {
	if o.next == len(o.buf) {
		grown := make([]Entry, min(max(2*len(o.buf), initialEntries), o.rec.capacity))
		copy(grown, o.buf)
		o.buf = grown
	}
	o.buf[o.next] = e
	o.next++
	if o.next == o.rec.capacity {
		o.next = 0
		o.full = true
	}
}

// snapshotLocked copies the ring oldest-first into one never-nil slice
// of exactly the ring's length; o.mu must be held.
func (o *Op) snapshotLocked() []Entry {
	n := o.next
	if o.full {
		n = len(o.buf)
	}
	out := make([]Entry, 0, n)
	if o.full {
		out = append(out, o.buf[o.next:]...)
	}
	return append(out, o.buf[:o.next]...)
}

// AttrTable shares read-only Attrs maps among entries: every Get with the
// same key/value pairs returns the same map. Recorders use it for attrs
// drawn from small value sets — check ids, plan nodes, steps, statuses —
// so a thousand operations that record the same evidence hold one map
// between them instead of a thousand. It keeps at most attrTableCap maps
// (and none with more than eight pairs); past that each Get returns a map
// of its own. The zero value is ready for use and safe for concurrent
// use.
type AttrTable struct {
	mu sync.Mutex
	m  map[attrKey]map[string]string
}

// attrKey holds up to eight key/value pairs, in the order given.
type attrKey [16]string

const attrTableCap = 4096

// Get returns a map of the key/value pairs in kv (key, value, key, value,
// ...), leaving out every pair whose value is empty. The map is shared:
// it must not be changed.
func (t *AttrTable) Get(kv ...string) map[string]string {
	if len(kv) > len(attrKey{}) {
		return pairs(kv)
	}
	var key attrKey
	copy(key[:], kv)
	t.mu.Lock()
	defer t.mu.Unlock()
	if m, ok := t.m[key]; ok {
		return m
	}
	m := pairs(kv)
	if t.m == nil {
		t.m = make(map[attrKey]map[string]string)
	}
	if len(t.m) < attrTableCap {
		t.m[key] = m
	}
	return m
}

// pairs builds the map of kv's pairs with a non-empty value.
func pairs(kv []string) map[string]string {
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		if kv[i+1] != "" {
			m[kv[i]] = kv[i+1]
		}
	}
	return m
}

// Context propagation. Sessions hand diagnosis a background context, so
// the operation ring and the causal parent travel as context values.

type ctxKey int

const (
	opKey ctxKey = iota
	parentKey
)

// NewContext returns ctx carrying the operation ring.
func NewContext(ctx context.Context, o *Op) context.Context {
	return context.WithValue(ctx, opKey, o)
}

// FromContext returns the operation ring carried by ctx, or nil.
func FromContext(ctx context.Context) *Op {
	o, _ := ctx.Value(opKey).(*Op)
	return o
}

// WithParent returns ctx carrying id as the causal parent for entries
// recorded downstream.
func WithParent(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, parentKey, id)
}

// ParentFrom returns the causal parent carried by ctx (0 if none).
func ParentFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(parentKey).(uint64)
	return id
}

// ChainToLog walks parent links from the entry with id fromID and
// returns a path (from the starting entry down to the terminal one)
// ending at a log.event entry, plus whether such a chain exists. A
// chain ending at a stream.gap entry does not count: the evidence was
// lost, not linked. The walk is depth-first in parent order and visits
// each entry at most once, so cycles terminate.
//
// The entries are indexed once — by binary search when their IDs
// ascend, as a Timeline's do, or else by a map in which the last entry of
// an ID wins — and the path is built once, at the end. On a timeline of up
// to 256 entries and a chain up to 16 deep, the path is the only
// allocation.
func ChainToLog(entries []Entry, fromID uint64) ([]Entry, bool) {
	x := newEntryIndex(entries)
	var seenBuf [4]uint64
	seen := seenBuf[:]
	if len(entries) > 64*len(seenBuf) {
		seen = make([]uint64, (len(entries)+63)/64)
	}
	// path holds the walk's current branch: an entry's index and how many
	// of its parents have been tried.
	type step struct{ i, next int }
	var pathBuf [16]step
	path := pathBuf[:0]
	id := fromID
	for {
		i, ok := x.find(id)
		if ok && seen[i/64]&(1<<(i%64)) == 0 {
			seen[i/64] |= 1 << (i % 64)
			if entries[i].Kind == KindLogEvent {
				out := make([]Entry, 0, len(path)+1)
				for _, st := range path {
					out = append(out, entries[st.i])
				}
				return append(out, entries[i]), true
			}
			path = append(path, step{i: i})
		}
		// Next, the first untried parent on the branch, backing up past
		// entries whose parents all failed.
		for len(path) > 0 && path[len(path)-1].next == len(entries[path[len(path)-1].i].Parents) {
			path = path[:len(path)-1]
		}
		if len(path) == 0 {
			return nil, false
		}
		top := &path[len(path)-1]
		id = entries[top.i].Parents[top.next]
		top.next++
	}
}

// entryIndex finds an entry's position by ID.
type entryIndex struct {
	entries []Entry
	byID    map[uint64]int // nil when the IDs ascend
}

func newEntryIndex(entries []Entry) entryIndex {
	x := entryIndex{entries: entries}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].ID >= entries[i].ID {
			x.byID = make(map[uint64]int, len(entries))
			for i, e := range entries {
				x.byID[e.ID] = i
			}
			break
		}
	}
	return x
}

func (x entryIndex) find(id uint64) (int, bool) {
	if x.byID != nil {
		i, ok := x.byID[id]
		return i, ok
	}
	i := sort.Search(len(x.entries), func(i int) bool { return x.entries[i].ID >= id })
	return i, i < len(x.entries) && x.entries[i].ID == id
}

// Parents returns the non-zero ids as an entry's parent list, sized
// exactly (nil when every id is zero).
func Parents(ids ...uint64) []uint64 {
	n := 0
	for _, id := range ids {
		if id != 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]uint64, 0, n)
	for _, id := range ids {
		if id != 0 {
			out = append(out, id)
		}
	}
	return out
}

// Render writes a human-readable timeline, one entry per line, with
// parent links, for podctl and the README quickstart.
func Render(w io.Writer, tl Timeline) {
	fmt.Fprintf(w, "%s timeline (%d entries", tl.Operation, len(tl.Entries))
	if tl.Dropped > 0 {
		fmt.Fprintf(w, ", %d dropped", tl.Dropped)
	}
	fmt.Fprintln(w, ")")
	for _, e := range tl.Entries {
		parents := ""
		if len(e.Parents) > 0 {
			refs := make([]string, len(e.Parents))
			for i, p := range e.Parents {
				refs[i] = fmt.Sprintf("#%d", p)
			}
			parents = "  <- " + strings.Join(refs, ",")
		}
		attrs := ""
		if len(e.Attrs) > 0 {
			keys := make([]string, 0, len(e.Attrs))
			for k := range e.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			pairs := make([]string, len(keys))
			for i, k := range keys {
				pairs[i] = k + "=" + e.Attrs[k]
			}
			attrs = "  [" + strings.Join(pairs, " ") + "]"
		}
		fmt.Fprintf(w, "  #%-4d %s  %-19s %s%s%s\n",
			e.ID, e.At.Format("15:04:05.000"), e.Kind, e.Message, attrs, parents)
	}
}
