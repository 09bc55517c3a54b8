package pipeline

import (
	"sync"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs"
)

// Reorder-buffer metrics: how much repair the lossy shipping fabric needed.
// The labelled dispositions are resolved once — CounterVec.With allocates
// per call, which the per-event Offer path cannot afford.
var (
	mReorder = obs.Default.CounterVec("pod_reorder_events_total",
		"Sequenced events through the reorder/dedup buffer by disposition.", "disposition")
	mReorderUnseq     = mReorder.With("unsequenced")
	mReorderInOrder   = mReorder.With("in_order")
	mReorderDuplicate = mReorder.With("duplicate")
	mReorderHeld      = mReorder.With("held")
	mReorderGaps      = obs.Default.Counter("pod_reorder_gaps_total",
		"Sequence gaps declared after the watermark expired or the window overflowed.")
	mReorderPending = obs.Default.Gauge("pod_reorder_pending",
		"Out-of-order events currently held by reorder buffers.")
)

// ReorderOptions tune a ReorderBuffer.
type ReorderOptions struct {
	// Window is how long (clock time) an out-of-order event may wait for
	// its predecessors before the watermark declares them lost. Defaults
	// to 3s.
	Window time.Duration
	// MaxPending bounds the held events per source; past it the oldest
	// run is force-flushed (declaring a gap) regardless of the watermark.
	// Defaults to 256.
	MaxPending int
	// Schedule, when set, arms a one-shot timer driving the watermark: the
	// buffer schedules a Flush whenever it holds out-of-order events, so
	// gaps are declared even if no further event ever arrives. It must
	// return a cancel function (assertion.TimerSet.After fits). When nil
	// the owner is responsible for calling Flush.
	Schedule func(d time.Duration, f func()) func()
}

// Delivery is one event released by a ReorderBuffer, in per-source
// sequence order.
type Delivery struct {
	Event logging.Event
	// GapBefore is true when one or more events sequenced immediately
	// before this one were declared lost — the consumer is looking at a
	// hole in the stream and should degrade accordingly.
	GapBefore bool
	// Held is true when the event arrived out of order and waited in the
	// buffer before release — the stream was repaired, not pristine.
	Held bool
}

// ReorderBuffer repairs a lossy event stream in front of the conformance
// checker: events carrying bus sequence numbers (Event.Seq) are delivered
// to the callback in per-source order exactly once — duplicates are
// discarded, out-of-order events are held in a bounded window, and
// missing events are declared lost once the clock-driven watermark
// expires, at which point delivery resumes past the gap with
// Delivery.GapBefore set.
//
// Sources are keyed by (Source, SourceHost, Type), matching the bus
// stamping granularity. Events without a sequence number pass through
// unexamined. The deliver callback runs under the buffer's lock — every
// delivery is totally ordered — and must not call back into the buffer.
type ReorderBuffer struct {
	clk     clock.Clock
	opts    ReorderOptions
	deliver func(Delivery)

	mu          sync.Mutex
	sources     map[sourceKey]*reorderSource
	flushCancel func()
	gaps        uint64
	duplicates  uint64
}

type reorderSource struct {
	next uint64 // next expected sequence number; 0 = first event decides
	// held[head:] is the window of out-of-order events, sorted by
	// sequence number, so the lowest held event is at the front. Popping
	// the front advances head; the slots before it are reused once the
	// window empties or the slice must grow.
	held []heldEvent
	head int
}

type heldEvent struct {
	ev logging.Event
	at time.Time // clock arrival time, for the watermark
}

// pending is the number of held events.
func (src *reorderSource) pending() int { return len(src.held) - src.head }

// front returns the lowest held event; the window must not be empty.
func (src *reorderSource) front() *heldEvent { return &src.held[src.head] }

// popFront removes the lowest held event.
func (src *reorderSource) popFront() {
	src.held[src.head] = heldEvent{} // release the event's fields
	src.head++
	if src.head == len(src.held) {
		src.held, src.head = src.held[:0], 0
	}
}

// insert adds h to the window in sequence order, reporting false (and
// holding nothing) when an event with that sequence number is already
// held. Held events arrive nearly in order, so the search runs back from
// the tail.
func (src *reorderSource) insert(h heldEvent) bool {
	i := len(src.held)
	for i > src.head && src.held[i-1].ev.Seq > h.ev.Seq {
		i--
	}
	if i > src.head && src.held[i-1].ev.Seq == h.ev.Seq {
		return false
	}
	if src.head > 0 && len(src.held) == cap(src.held) {
		// Reuse the popped slots before growing.
		n := copy(src.held, src.held[src.head:])
		clear(src.held[n:])
		src.held, i, src.head = src.held[:n], i-src.head, 0
	}
	src.held = append(src.held, heldEvent{})
	copy(src.held[i+1:], src.held[i:])
	src.held[i] = h
	return true
}

// NewReorderBuffer returns a buffer delivering repaired streams to the
// callback.
func NewReorderBuffer(clk clock.Clock, opts ReorderOptions, deliver func(Delivery)) *ReorderBuffer {
	if opts.Window <= 0 {
		opts.Window = 3 * time.Second
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = 256
	}
	return &ReorderBuffer{
		clk:     clk,
		opts:    opts,
		deliver: deliver,
		sources: make(map[sourceKey]*reorderSource),
	}
}

// sourceKey identifies one sequenced stream. A struct key hashes the three
// components directly — the string concatenation it replaces allocated a
// fresh key per offered event.
type sourceKey struct {
	src, host, typ string
}

func keyOf(e logging.Event) sourceKey {
	return sourceKey{src: e.Source, host: e.SourceHost, typ: e.Type}
}

// Offer feeds one event into the buffer. In-order events (and unsequenced
// ones) are delivered synchronously; duplicates are dropped; out-of-order
// events are held until their predecessors arrive, the watermark expires,
// or the window overflows.
func (b *ReorderBuffer) Offer(ev logging.Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ev.Seq == 0 {
		mReorderUnseq.Inc()
		b.deliver(Delivery{Event: ev})
		return
	}
	key := keyOf(ev)
	src, ok := b.sources[key]
	if !ok {
		src = &reorderSource{}
		b.sources[key] = src
	}
	switch {
	case ev.Seq == src.next || (src.next == 0 && ev.Seq == 1):
		// The expected next event arrived (bus streams start at 1, which
		// also sets the baseline). Deliver and drain any consecutive held
		// successors.
		mReorderInOrder.Inc()
		src.next = ev.Seq + 1
		b.deliver(Delivery{Event: ev})
		b.drain(src, false)
	case src.next != 0 && ev.Seq < src.next:
		// Already delivered (or declared lost): a duplicate.
		b.duplicates++
		mReorderDuplicate.Inc()
	default:
		// Out of order — including a stream whose first observed event is
		// not seq 1: earlier events may still be in flight, so it is held
		// rather than taken as the baseline.
		if !src.insert(heldEvent{ev: ev, at: b.clk.Now()}) {
			b.duplicates++
			mReorderDuplicate.Inc()
			return
		}
		mReorderHeld.Inc()
		mReorderPending.Inc()
		for src.pending() > b.opts.MaxPending {
			b.forceOldest(src)
		}
		b.armFlush()
	}
	b.flushExpired(b.clk.Now())
}

// drain delivers consecutive held successors of src.next. gapFirst marks
// the first delivery as following a declared gap.
func (b *ReorderBuffer) drain(src *reorderSource, gapFirst bool) {
	for src.pending() > 0 && src.front().ev.Seq == src.next {
		ev := src.front().ev
		src.popFront()
		mReorderPending.Dec()
		src.next++
		b.deliver(Delivery{Event: ev, GapBefore: gapFirst, Held: true})
		gapFirst = false
	}
}

// forceOldest declares a gap up to the lowest held sequence number —
// called when the per-source window overflows.
func (b *ReorderBuffer) forceOldest(src *reorderSource) {
	if src.pending() == 0 {
		return
	}
	b.gaps++
	mReorderGaps.Inc()
	src.next = src.front().ev.Seq
	b.drain(src, true)
}

// Flush applies the watermark now: held events whose wait exceeded the
// window are released, declaring the missing predecessors lost.
func (b *ReorderBuffer) Flush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.flushExpired(b.clk.Now())
	b.armFlush()
}

// Close force-releases every held event (declaring gaps) — the stream is
// over and nothing more is coming to fill the holes.
func (b *ReorderBuffer) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.flushCancel != nil {
		b.flushCancel()
		b.flushCancel = nil
	}
	for _, src := range b.sources {
		for src.pending() > 0 {
			b.forceOldest(src)
		}
	}
}

// flushExpired releases expired runs: while the lowest held event of a
// stream has waited out the window, its missing predecessors are
// declared lost. Called with the lock held.
func (b *ReorderBuffer) flushExpired(now time.Time) {
	for _, src := range b.sources {
		for src.pending() > 0 && now.Sub(src.front().at) >= b.opts.Window {
			b.forceOldest(src)
		}
	}
}

// armFlush schedules the next watermark flush when events are held and a
// scheduler was configured. Called with the lock held.
func (b *ReorderBuffer) armFlush() {
	if b.opts.Schedule == nil {
		return
	}
	if b.pendingLocked() == 0 {
		if b.flushCancel != nil {
			b.flushCancel()
			b.flushCancel = nil
		}
		return
	}
	if b.flushCancel != nil {
		return // a flush is already on its way
	}
	b.flushCancel = b.opts.Schedule(b.opts.Window, func() {
		b.mu.Lock()
		b.flushCancel = nil
		b.mu.Unlock()
		b.Flush()
	})
}

func (b *ReorderBuffer) pendingLocked() int {
	n := 0
	for _, src := range b.sources {
		n += src.pending()
	}
	return n
}

// Pending returns the number of held out-of-order events.
func (b *ReorderBuffer) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pendingLocked()
}

// Stats reports the buffer's repair counters.
type ReorderStats struct {
	// Pending is the number of currently held out-of-order events.
	Pending int `json:"pending"`
	// Gaps is how many sequence gaps were declared.
	Gaps uint64 `json:"gaps"`
	// Duplicates is how many duplicate events were discarded.
	Duplicates uint64 `json:"duplicates"`
}

// Stats snapshots the buffer.
func (b *ReorderBuffer) Stats() ReorderStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return ReorderStats{Pending: b.pendingLocked(), Gaps: b.gaps, Duplicates: b.duplicates}
}
