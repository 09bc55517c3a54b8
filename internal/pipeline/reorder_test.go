package pipeline

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/logging"
)

// manualClock is a hand-advanced clock for deterministic watermark tests.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func (c *manualClock) Sleep(ctx context.Context, d time.Duration) error {
	c.Advance(d)
	return ctx.Err()
}

// AfterFunc fires at once: the call runs without waiting for the clock.
func (c *manualClock) AfterFunc(_ time.Duration, f func()) func() bool {
	go f()
	return func() bool { return false }
}

func (c *manualClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func seqEvent(source, host string, seq uint64) logging.Event {
	return logging.Event{Source: source, SourceHost: host, Type: logging.TypeOperation, Seq: seq}
}

// collector records deliveries per source key.
type collector struct {
	order []Delivery
}

func (c *collector) deliver(d Delivery) { c.order = append(c.order, d) }

// TestReorderPropertyPermutations is the property test: for many seeded
// random permutations of several interleaved sequenced streams, with
// duplicates injected, every event is delivered exactly once, in
// per-source sequence order, with no gaps declared — as long as the
// window never overflows and the watermark never fires.
func TestReorderPropertyPermutations(t *testing.T) {
	const perSource = 120
	sources := []struct{ src, host string }{
		{"asgard.log", "ops-a"},
		{"asgard.log", "ops-b"},
		{"cloudwatch.log", "ops-a"},
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var events []logging.Event
		for _, s := range sources {
			for i := 1; i <= perSource; i++ {
				events = append(events, seqEvent(s.src, s.host, uint64(i)))
			}
		}
		rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
		// Duplicate ~10% of the stream at random positions.
		for i := 0; i < len(events); i += 10 {
			events = append(events, events[rng.Intn(len(events))])
		}

		clk := newManualClock()
		col := &collector{}
		b := NewReorderBuffer(clk, ReorderOptions{MaxPending: 3 * perSource}, col.deliver)
		for _, ev := range events {
			b.Offer(ev)
		}

		next := map[string]uint64{}
		for _, d := range col.order {
			if d.GapBefore {
				t.Fatalf("seed %d: spurious gap before %v", seed, d.Event)
			}
			key := d.Event.Source + "|" + d.Event.SourceHost + "|" + d.Event.Type
			if want := next[key] + 1; d.Event.Seq != want {
				t.Fatalf("seed %d: %s delivered seq %d, want %d", seed, key, d.Event.Seq, want)
			}
			next[key]++
		}
		for key, n := range next {
			if n != perSource {
				t.Fatalf("seed %d: %s delivered %d events, want %d", seed, key, n, perSource)
			}
		}
		st := b.Stats()
		if st.Pending != 0 || st.Gaps != 0 {
			t.Fatalf("seed %d: stats = %+v", seed, st)
		}
		if st.Duplicates == 0 {
			t.Fatalf("seed %d: no duplicates observed despite injection", seed)
		}
	}
}

// TestReorderWatermarkDeclaresGap drops one event and checks the watermark
// releases the successors with GapBefore set once the window expires, and
// that the late-arriving original is then discarded as a duplicate.
func TestReorderWatermarkDeclaresGap(t *testing.T) {
	clk := newManualClock()
	col := &collector{}
	b := NewReorderBuffer(clk, ReorderOptions{Window: 3 * time.Second}, col.deliver)

	b.Offer(seqEvent("asgard.log", "h", 1))
	b.Offer(seqEvent("asgard.log", "h", 3)) // 2 is lost
	b.Offer(seqEvent("asgard.log", "h", 4))
	if len(col.order) != 1 {
		t.Fatalf("deliveries before watermark = %d, want 1", len(col.order))
	}

	clk.Advance(2 * time.Second)
	b.Flush()
	if len(col.order) != 1 {
		t.Fatalf("watermark fired before window: %d deliveries", len(col.order))
	}

	clk.Advance(2 * time.Second)
	b.Flush()
	if len(col.order) != 3 {
		t.Fatalf("deliveries after watermark = %d, want 3", len(col.order))
	}
	if !col.order[1].GapBefore {
		t.Error("first post-gap delivery not marked GapBefore")
	}
	if col.order[2].GapBefore {
		t.Error("second post-gap delivery wrongly marked GapBefore")
	}

	// The lost event finally arrives: it must not be re-delivered.
	b.Offer(seqEvent("asgard.log", "h", 2))
	if len(col.order) != 3 {
		t.Fatalf("late event re-delivered: %d deliveries", len(col.order))
	}
	st := b.Stats()
	if st.Gaps != 1 || st.Duplicates != 1 {
		t.Errorf("stats = %+v, want 1 gap and 1 duplicate", st)
	}
}

// TestReorderOverflowForcesOldest checks the MaxPending bound: overflow
// force-flushes the oldest held run, declaring a gap, without waiting for
// the watermark.
func TestReorderOverflowForcesOldest(t *testing.T) {
	clk := newManualClock()
	col := &collector{}
	b := NewReorderBuffer(clk, ReorderOptions{Window: time.Hour, MaxPending: 3}, col.deliver)

	b.Offer(seqEvent("asgard.log", "h", 1))
	for seq := uint64(3); seq <= 7; seq++ { // 2 is missing; 5 held > MaxPending 3
		b.Offer(seqEvent("asgard.log", "h", seq))
	}
	if len(col.order) != 6 {
		t.Fatalf("deliveries = %d, want 6 (1 + forced 3..7)", len(col.order))
	}
	if !col.order[1].GapBefore {
		t.Error("forced delivery not marked GapBefore")
	}
	if b.Stats().Gaps != 1 {
		t.Errorf("gaps = %d, want 1", b.Stats().Gaps)
	}
	if b.Pending() != 0 {
		t.Errorf("pending = %d after force flush", b.Pending())
	}
}

// TestReorderCloseDrainsHeld checks Close releases everything still held,
// declaring gaps, so no event is silently lost at shutdown.
func TestReorderCloseDrainsHeld(t *testing.T) {
	clk := newManualClock()
	col := &collector{}
	b := NewReorderBuffer(clk, ReorderOptions{Window: time.Hour}, col.deliver)

	b.Offer(seqEvent("asgard.log", "h", 1))
	b.Offer(seqEvent("asgard.log", "h", 5))
	b.Offer(seqEvent("asgard.log", "h", 7))
	b.Close()
	if len(col.order) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(col.order))
	}
	if !col.order[1].GapBefore || !col.order[2].GapBefore {
		t.Error("forced closing deliveries not marked GapBefore")
	}
	if b.Pending() != 0 {
		t.Errorf("pending = %d after Close", b.Pending())
	}
}

// TestReorderUnsequencedPassThrough checks events that never crossed a bus
// (Seq 0) are delivered synchronously and unexamined.
func TestReorderUnsequencedPassThrough(t *testing.T) {
	clk := newManualClock()
	col := &collector{}
	b := NewReorderBuffer(clk, ReorderOptions{}, col.deliver)
	for i := 0; i < 5; i++ {
		b.Offer(logging.Event{Source: "raw.log", Message: "x"})
	}
	if len(col.order) != 5 {
		t.Fatalf("deliveries = %d, want 5", len(col.order))
	}
	if st := b.Stats(); st.Pending != 0 || st.Gaps != 0 || st.Duplicates != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestReorderScheduleArmsWatermark checks the Schedule hook drives the
// watermark without any further traffic.
func TestReorderScheduleArmsWatermark(t *testing.T) {
	clk := newManualClock()
	col := &collector{}
	var scheduled []func()
	b := NewReorderBuffer(clk, ReorderOptions{
		Window: 3 * time.Second,
		Schedule: func(d time.Duration, f func()) func() {
			scheduled = append(scheduled, f)
			return func() {}
		},
	}, col.deliver)

	b.Offer(seqEvent("asgard.log", "h", 2)) // first observed is not 1: held
	if len(scheduled) != 1 {
		t.Fatalf("scheduled flushes = %d, want 1", len(scheduled))
	}
	clk.Advance(4 * time.Second)
	scheduled[0]() // the timer fires
	if len(col.order) != 1 || !col.order[0].GapBefore {
		t.Fatalf("timer flush deliveries = %+v", col.order)
	}
}

// FuzzReorderBuffer feeds arbitrary byte-derived sequences of events to
// the buffer and to refReorderBuffer, comparing every call's deliveries
// and the stats (reorderPair), and checks the buffer's core invariants:
// per-source deliveries are strictly increasing in sequence number,
// nothing is delivered twice, and Close leaves nothing pending.
func FuzzReorderBuffer(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{5, 4, 3, 2, 1, 1, 2, 3})
	f.Add([]byte{0, 0, 7, 7, 200, 1, 3, 2, 128, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		delivered := map[string]uint64{} // key -> last delivered seq
		p := newReorderPair(t, ReorderOptions{Window: 5 * time.Second, MaxPending: 8})
		p.check = func(d Delivery) {
			if d.Event.Seq == 0 {
				return
			}
			key := d.Event.Source + "|" + d.Event.SourceHost + "|" + d.Event.Type
			if last, ok := delivered[key]; ok && d.Event.Seq <= last {
				t.Fatalf("%s: delivered seq %d after %d", key, d.Event.Seq, last)
			}
			delivered[key] = d.Event.Seq
		}
		for i, c := range data {
			src := "s" + string(rune('A'+int(c)%2))
			seq := uint64(c>>1)%24 + 1
			p.offer(seqEvent(src, "h", seq))
			if i%7 == 6 {
				p.clk.Advance(2 * time.Second)
				p.flush()
			}
		}
		p.close()
		if p.b.Pending() != 0 {
			t.Fatalf("pending = %d after Close", p.b.Pending())
		}
	})
}

// reorderPair drives a ReorderBuffer and refReorderBuffer with the same
// calls on one clock and, after every call, demands the same deliveries
// per source (sequence, GapBefore, Held, in order) and the same stats.
// Deliveries of different sources are compared apart: both buffers walk
// their sources in map order when a watermark or Close releases several.
type reorderPair struct {
	t         testing.TB
	clk       *manualClock
	b         *ReorderBuffer
	ref       *refReorderBuffer
	got, want []Delivery
	check     func(Delivery) // optional invariant on every delivery
	calls     int
}

func newReorderPair(t testing.TB, opts ReorderOptions) *reorderPair {
	p := &reorderPair{t: t, clk: newManualClock()}
	p.b = NewReorderBuffer(p.clk, opts, func(d Delivery) {
		if p.check != nil {
			p.check(d)
		}
		p.got = append(p.got, d)
	})
	p.ref = newRefReorderBuffer(p.clk, opts, func(d Delivery) { p.want = append(p.want, d) })
	return p
}

func (p *reorderPair) offer(ev logging.Event) {
	p.b.Offer(ev)
	p.ref.Offer(ev)
	p.compare("Offer", ev.Source, ev.Seq)
}

func (p *reorderPair) flush() {
	p.b.Flush()
	p.ref.Flush()
	p.compare("Flush", "", 0)
}

func (p *reorderPair) close() {
	p.b.Close()
	p.ref.Close()
	p.compare("Close", "", 0)
}

// deliveryRow is the compared shape of one delivery.
type deliveryRow struct {
	seq       uint64
	gap, held bool
}

func bySource(ds []Delivery) map[string][]deliveryRow {
	out := map[string][]deliveryRow{}
	for _, d := range ds {
		key := d.Event.Source + "|" + d.Event.SourceHost + "|" + d.Event.Type
		out[key] = append(out[key], deliveryRow{d.Event.Seq, d.GapBefore, d.Held})
	}
	return out
}

func (p *reorderPair) compare(call, src string, seq uint64) {
	p.t.Helper()
	p.calls++
	got, want := bySource(p.got), bySource(p.want)
	if !reflect.DeepEqual(got, want) {
		p.t.Fatalf("call %d (%s %s %d): deliveries differ\n got: %+v\nwant: %+v", p.calls, call, src, seq, got, want)
	}
	if g, w := p.b.Stats(), p.ref.Stats(); g != w {
		p.t.Fatalf("call %d (%s %s %d): stats = %+v, reference %+v", p.calls, call, src, seq, g, w)
	}
	p.got, p.want = p.got[:0], p.want[:0]
}

// TestReorderMatchesReference runs seeded random lossy streams — two or
// three interleaved sources with drops, duplicates, local swaps, windows
// small enough to overflow, watermark flushes at random clock advances
// and a final Close — through the buffer and the map-based reference.
func TestReorderMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newReorderPair(t, ReorderOptions{
			Window:     time.Duration(1+rng.Intn(4)) * time.Second,
			MaxPending: 2 + rng.Intn(15),
		})
		var streams [][]logging.Event
		for s := 0; s < 2+rng.Intn(2); s++ {
			var evs []logging.Event
			for seq := uint64(1); seq <= uint64(20+rng.Intn(180)); seq++ {
				if rng.Float64() < 0.08 {
					continue // dropped
				}
				ev := seqEvent("src"+string(rune('A'+s)), "h", seq)
				evs = append(evs, ev)
				if rng.Float64() < 0.05 {
					evs = append(evs, ev) // duplicated
				}
			}
			for i := range evs { // local swaps
				if j := i + 1 + rng.Intn(6); j < len(evs) && rng.Float64() < 0.2 {
					evs[i], evs[j] = evs[j], evs[i]
				}
			}
			streams = append(streams, evs)
		}
		for len(streams) > 0 {
			i := rng.Intn(len(streams))
			p.offer(streams[i][0])
			if streams[i] = streams[i][1:]; len(streams[i]) == 0 {
				streams = append(streams[:i], streams[i+1:]...)
			}
			if rng.Float64() < 0.1 {
				// Half-second steps land exactly on the window's edge too.
				p.clk.Advance(time.Duration(rng.Intn(6)) * 500 * time.Millisecond)
				p.flush()
			}
		}
		p.close()
		if p.b.Pending() != 0 {
			t.Fatalf("seed %d: pending = %d after Close", seed, p.b.Pending())
		}
	}
}

// TestReorderHeldOfferDoesNotAllocate pins the window: once a stream's
// window has grown, holding an out-of-order event and releasing it again
// reuses its slots.
func TestReorderHeldOfferDoesNotAllocate(t *testing.T) {
	clk := newManualClock()
	delivered := 0
	b := NewReorderBuffer(clk, ReorderOptions{Window: time.Hour}, func(Delivery) { delivered++ })
	next := uint64(1)
	cycle := func() {
		b.Offer(seqEvent("asgard.log", "h", next+2)) // held
		b.Offer(seqEvent("asgard.log", "h", next))
		b.Offer(seqEvent("asgard.log", "h", next+1)) // releases next+2
		next += 3
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("a held Offer and its release allocate %.1f times on a warmed stream", allocs)
	}
	if want := int(next - 1); delivered != want || b.Pending() != 0 {
		t.Fatalf("delivered %d of %d, %d still pending", delivered, want, b.Pending())
	}
}

// refReorderBuffer is the map-based ReorderBuffer the sorted window
// replaced, kept verbatim apart from its names and metrics as the
// reference the differential tests compare against: every held-event
// lookup scans the pending map for its minimum.
type refReorderBuffer struct {
	clk     clock.Clock
	opts    ReorderOptions
	deliver func(Delivery)

	mu          sync.Mutex
	sources     map[sourceKey]*refReorderSource
	flushCancel func()
	gaps        uint64
	duplicates  uint64
}

type refReorderSource struct {
	next    uint64 // next expected sequence number; 0 = first event decides
	pending map[uint64]heldEvent
}

func newRefReorderBuffer(clk clock.Clock, opts ReorderOptions, deliver func(Delivery)) *refReorderBuffer {
	if opts.Window <= 0 {
		opts.Window = 3 * time.Second
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = 256
	}
	return &refReorderBuffer{
		clk:     clk,
		opts:    opts,
		deliver: deliver,
		sources: make(map[sourceKey]*refReorderSource),
	}
}

func (b *refReorderBuffer) Offer(ev logging.Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ev.Seq == 0 {
		b.deliver(Delivery{Event: ev})
		return
	}
	key := keyOf(ev)
	src, ok := b.sources[key]
	if !ok {
		src = &refReorderSource{pending: make(map[uint64]heldEvent, 8)}
		b.sources[key] = src
	}
	switch {
	case ev.Seq == src.next || (src.next == 0 && ev.Seq == 1):
		src.next = ev.Seq + 1
		b.deliver(Delivery{Event: ev})
		b.drain(src, false)
	case src.next != 0 && ev.Seq < src.next:
		b.duplicates++
	default:
		if _, dup := src.pending[ev.Seq]; dup {
			b.duplicates++
			return
		}
		src.pending[ev.Seq] = heldEvent{ev: ev, at: b.clk.Now()}
		for len(src.pending) > b.opts.MaxPending {
			b.forceOldest(src)
		}
		b.armFlush()
	}
	b.flushExpired(b.clk.Now())
}

func (b *refReorderBuffer) drain(src *refReorderSource, gapFirst bool) {
	for {
		held, ok := src.pending[src.next]
		if !ok {
			return
		}
		delete(src.pending, src.next)
		src.next++
		b.deliver(Delivery{Event: held.ev, GapBefore: gapFirst, Held: true})
		gapFirst = false
	}
}

func (b *refReorderBuffer) forceOldest(src *refReorderSource) {
	low := uint64(0)
	for seq := range src.pending {
		if low == 0 || seq < low {
			low = seq
		}
	}
	if low == 0 {
		return
	}
	b.gaps++
	src.next = low
	b.drain(src, true)
}

func (b *refReorderBuffer) Flush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.flushExpired(b.clk.Now())
	b.armFlush()
}

func (b *refReorderBuffer) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.flushCancel != nil {
		b.flushCancel()
		b.flushCancel = nil
	}
	for _, src := range b.sources {
		for len(src.pending) > 0 {
			b.forceOldest(src)
		}
	}
}

func (b *refReorderBuffer) flushExpired(now time.Time) {
	for _, src := range b.sources {
		for len(src.pending) > 0 {
			low := uint64(0)
			for seq := range src.pending {
				if low == 0 || seq < low {
					low = seq
				}
			}
			held := src.pending[low]
			if now.Sub(held.at) < b.opts.Window {
				break
			}
			b.gaps++
			src.next = low
			b.drain(src, true)
		}
	}
}

func (b *refReorderBuffer) armFlush() {
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
		return
	}
	b.flushCancel = b.opts.Schedule(b.opts.Window, func() {
		b.mu.Lock()
		b.flushCancel = nil
		b.mu.Unlock()
		b.Flush()
	})
}

func (b *refReorderBuffer) pendingLocked() int {
	n := 0
	for _, src := range b.sources {
		n += len(src.pending)
	}
	return n
}

func (b *refReorderBuffer) Stats() ReorderStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return ReorderStats{Pending: b.pendingLocked(), Gaps: b.gaps, Duplicates: b.duplicates}
}
