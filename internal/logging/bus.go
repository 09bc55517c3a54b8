package logging

import (
	"sync"
	"sync/atomic"

	"poddiagnosis/internal/obs"
)

// Bus metrics: the full-buffer eviction in Publish used to lose events
// with zero signal; both totals now land in the default registry. Drops
// are labelled by subscriber so pipeline loss is attributable to the
// consumer that fell behind rather than a single anonymous total.
var (
	mPublished = obs.Default.Counter("pod_logbus_published_total",
		"Log events published to the bus.")
	mDropped = obs.Default.CounterVec("pod_logbus_dropped_total",
		"Log events evicted from full subscriber buffers.", "subscriber")
	mSubscribers = obs.Default.Gauge("pod_logbus_subscribers",
		"Active bus subscriptions.")
)

// anonSubscriber labels drops on subscriptions created without a name.
const anonSubscriber = "anon"

// Bus is an in-process publish/subscribe channel for log events. It stands
// in for the log shipping fabric (Logstash agents forwarding to a central
// collector) of the paper's deployment. Publishing never blocks the
// producer: slow subscribers drop their oldest pending events, mirroring
// the lossy nature of real log shipping under backpressure.
//
// The bus also stamps each event with a monotone per-source sequence
// number (Event.Seq) on first publication, giving downstream consumers —
// in particular the conformance reorder/dedup buffer — enough structure to
// detect duplication, reordering and loss in the shipping fabric.
type Bus struct {
	mu      sync.Mutex
	subs    map[int]*Subscription
	nextID  int
	closed  bool
	dropped atomic.Uint64
	seq     map[seqKey]uint64 // per (Source, SourceHost, Type) publication counter
	cause   uint64            // bus-wide causality id counter
}

// seqKey is the sequencing granularity. A struct key hashes the components
// directly; the "src|host|type" concatenation it replaces allocated a
// fresh string per published event.
type seqKey struct {
	src, host, typ string
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{subs: make(map[int]*Subscription), seq: make(map[seqKey]uint64)}
}

// Subscription receives events published to a Bus. Receive from C until it
// is closed; call Cancel when done.
type Subscription struct {
	// C delivers published events. It is closed when the subscription is
	// cancelled or the bus is closed.
	C <-chan Event

	id      int
	name    string
	ch      chan Event
	bus     *Bus
	filter  func(Event) bool
	once    sync.Once
	dropped atomic.Uint64
	mDrops  *obs.Counter
}

// Subscribe registers a new anonymous subscriber with the given channel
// buffer. A nil filter receives every event. Buffer must be at least 1.
func (b *Bus) Subscribe(buffer int, filter func(Event) bool) *Subscription {
	return b.SubscribeNamed(anonSubscriber, buffer, filter)
}

// SubscribeNamed registers a subscriber whose dropped-event count is
// exported under the given name (the "subscriber" label of
// pod_logbus_dropped_total). A nil filter receives every event. Buffer
// must be at least 1.
func (b *Bus) SubscribeNamed(name string, buffer int, filter func(Event) bool) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	if name == "" {
		name = anonSubscriber
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	ch := make(chan Event, buffer)
	sub := &Subscription{ch: ch, C: ch, bus: b, filter: filter, name: name, mDrops: mDropped.With(name)}
	if b.closed {
		close(ch)
		return sub
	}
	sub.id = b.nextID
	b.nextID++
	b.subs[sub.id] = sub
	mSubscribers.Inc()
	return sub
}

// Name returns the subscriber name used for drop attribution.
func (s *Subscription) Name() string { return s.name }

// Dropped returns how many events were evicted from this subscription's
// buffer since it was created.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Cancel removes the subscription and closes its channel. It is safe to
// call more than once.
func (s *Subscription) Cancel() {
	s.once.Do(func() {
		s.bus.mu.Lock()
		defer s.bus.mu.Unlock()
		if _, ok := s.bus.subs[s.id]; ok {
			delete(s.bus.subs, s.id)
			close(s.ch)
			mSubscribers.Dec()
		}
	})
}

// drop records one lost event against both the bus total and the
// subscription it was destined for. Called with the bus lock held.
func (s *Subscription) drop() {
	s.bus.dropped.Add(1)
	s.dropped.Add(1)
	s.mDrops.Inc()
}

// Publish delivers the event to every matching subscriber. If a
// subscriber's buffer is full its oldest pending event is dropped to make
// room, so publishers are never blocked by slow consumers. Delivery makes
// bounded progress per subscriber — at most one eviction and two send
// attempts — so a consumer racing Publish by draining its channel can
// never make Publish spin while it holds the bus lock; in that rare race
// the new event is dropped (and counted) instead.
//
// Events with Seq == 0 are stamped with the next sequence number for
// their (Source, SourceHost, Type) triple — per type, because
// subscriptions filter by type and a type-filtered consumer must see a
// dense stream; events that already carry a sequence number (replays,
// chaos duplicates) keep it. Events with CauseID == 0 are likewise
// stamped with a bus-unique causality id; republished copies keep the
// original, so every duplicate of one line shares one cause.
func (b *Bus) Publish(e Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	if e.Seq == 0 {
		key := seqKey{src: e.Source, host: e.SourceHost, typ: e.Type}
		b.seq[key]++
		e.Seq = b.seq[key]
	}
	if e.CauseID == 0 {
		b.cause++
		e.CauseID = b.cause
	}
	mPublished.Inc()
	for _, sub := range b.subs {
		if sub.filter != nil && !sub.filter(e) {
			continue
		}
		select {
		case sub.ch <- e:
			continue
		default:
		}
		// Buffer full: evict the oldest pending event and retry once. The
		// eviction or the send can each lose a race with a concurrent
		// consumer receive; either way exactly one event is dropped.
		select {
		case <-sub.ch:
			sub.drop()
		default:
		}
		select {
		case sub.ch <- e:
		default:
			sub.drop()
		}
	}
}

// Dropped returns the total number of events evicted from full subscriber
// buffers since the bus was created — the signal slow subscribers used to
// lose silently.
func (b *Bus) Dropped() uint64 { return b.dropped.Load() }

// Close closes the bus and every subscription channel. Publish becomes a
// no-op afterwards.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for id, sub := range b.subs {
		delete(b.subs, id)
		close(sub.ch)
		mSubscribers.Dec()
	}
}

// TypeFilter returns a subscription filter matching any of the given
// event types.
func TypeFilter(types ...string) func(Event) bool {
	set := make(map[string]struct{}, len(types))
	for _, t := range types {
		set[t] = struct{}{}
	}
	return func(e Event) bool {
		_, ok := set[e.Type]
		return ok
	}
}
