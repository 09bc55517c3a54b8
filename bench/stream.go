package main

import (
	"fmt"
	"runtime"
	"time"

	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs"
	"poddiagnosis/internal/pipeline"
)

const (
	// clockScale is the simulated-clock speed-up of every workload: the
	// reorder window (3 s) and the lease TTLs become milliseconds of wall
	// time.
	clockScale = 1000
	// window is the closed-loop bound on lines published but not yet
	// answered. The bus evicts at 4096 pending events per subscriber, so
	// staying under it is what makes "zero bus drops" an oracle and not
	// luck.
	window = 1024
	// pacedRate is the open-loop rate of the paced slice, lines per
	// second: under a tenth of measured capacity, so result latency there
	// is service time and not the queue of the benchmark's own burst.
	pacedRate = 2000
)

// simEpoch is where every epoch's simulated clock starts.
var simEpoch = time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC)

// Chaos counters of the shared default registry: process-wide, so an epoch
// reads them against a baseline.
var (
	chaosEvents = obs.Default.CounterVec("pod_chaos_log_events_total",
		"Log events manipulated by the chaos tap, by action.", "action")
	chaosDropped    = chaosEvents.With("dropped")
	chaosDuplicated = chaosEvents.With("duplicated")
	chaosDelayed    = chaosEvents.With("delayed")
)

// stream drives one epoch's log lines into a bus and accounts for every
// one of them: it is the generator goroutine's half of the three
// ingest-shaped workloads.
type stream struct {
	tr  *tracer
	bus *logging.Bus
	obs *verdictObserver
	// published counts the lines fed so far this epoch.
	published int64

	// lossy is set when a chaos tap sits between the bus and the
	// pipeline; reorder then reads the repair counters of the buffer
	// behind it. The baselines are read once while the fresh system is
	// idle, and accounting is cumulative over the epoch, so a duplicate in
	// flight at a round boundary is a transient, not an error carried
	// into the next round.
	lossy          bool
	reorder        func() pipeline.ReorderStats
	dropped0, dup0 float64
}

func newStream(tr *tracer, bus *logging.Bus, units int) stream {
	return stream{
		tr: tr, bus: bus, obs: observeVerdicts(bus, units),
		dropped0: chaosDropped.Value(), dup0: chaosDuplicated.Value(),
	}
}

// chaosDrops is how many lines the tap has dropped this epoch.
func (st *stream) chaosDrops() int64 { return int64(chaosDropped.Value() - st.dropped0) }

// stale counts this epoch's reorder-buffer discards beyond the tap's own
// duplicates: delayed lines that arrived after their gap was declared.
func (st *stream) stale() int64 {
	n := int64(st.reorder().Duplicates) - int64(chaosDuplicated.Value()-st.dup0)
	if n < 0 {
		n = 0 // a duplicate still in flight; it is counted when it lands
	}
	return n
}

// accounted is how many published lines need no further waiting: answered
// by a verdict, dropped by the tap, or discarded as stale.
func (st *stream) accounted() int64 {
	n := st.obs.count.Load()
	if st.lossy {
		n += st.chaosDrops() + st.stale()
	}
	return n
}

// outstanding is the closed loop's view of lines in flight. It leaves out
// stale discards (reading them takes the reorder buffer's lock), so the
// loop may under-admit by that handful, never over-admit.
func (st *stream) outstanding() int64 {
	n := st.published - st.obs.count.Load()
	if st.lossy {
		n -= st.chaosDrops()
	}
	return n
}

func (st *stream) publish(ev logging.Event) {
	sp := st.tr.begin("logging.publish", "")
	st.bus.Publish(ev)
	st.tr.end(sp)
	st.published++
}

// awaitAccounted blocks until every published line is accounted for, or
// gives up after a generous wall deadline; the oracle then reports what is
// missing.
func (st *stream) awaitAccounted() {
	deadline := wallNow().Add(5 * time.Second)
	for st.accounted() < st.published && wallNow().Before(deadline) {
		st.obs.wait(200 * time.Microsecond)
	}
}

// publishBurst feeds evs closed loop and returns once every line is
// accounted for. afterEach, when set, runs after each published line.
func (st *stream) publishBurst(evs []logging.Event, afterEach func()) {
	for _, ev := range evs {
		for st.outstanding() > window {
			st.obs.wait(2 * time.Millisecond)
		}
		st.publish(ev)
		if afterEach != nil {
			afterEach()
		}
	}
	st.awaitAccounted()
}

// publishPaced feeds evs open loop at pacedRate. It returns each line's
// due instant and the generator's lateness against it. On a lossy stream
// it also reports which lines the tap delayed, attributing each increment
// of the tap's delayed counter to the line published just before it was
// observed (the tap handles a line microseconds after Publish; the next
// line is 500 µs away).
func (st *stream) publishPaced(evs []logging.Event) (due []time.Time, late []time.Duration, delayed []bool) {
	due = make([]time.Time, len(evs))
	late = make([]time.Duration, len(evs))
	delayed = make([]bool, len(evs))
	interval := time.Second / pacedRate
	start := wallNow()
	seen := chaosDelayed.Value()
	for i, ev := range evs {
		due[i] = start.Add(time.Duration(i) * interval)
		awaitDue(due[i])
		if now := chaosDelayed.Value(); i > 0 && now > seen {
			delayed[i-1], seen = true, now
		}
		late[i] = wallSince(due[i])
		st.publish(ev)
	}
	st.awaitAccounted()
	if len(evs) > 0 && chaosDelayed.Value() > seen {
		delayed[len(evs)-1] = true
	}
	return due, late, delayed
}

// awaitDue holds the generator until t. It yields in a loop instead of
// sleeping: timers on the sizing box fire on a ~1.1 ms grid, twice the
// paced interval, so a sleeping generator would run 0.4–1 ms late on every
// line and result latency would measure the timer, not the system.
func awaitDue(t time.Time) {
	for wallNow().Before(t) {
		runtime.Gosched()
	}
}

// streamCounts is what the observer and the bus saw; a round's oracle
// judges the difference of two readings.
type streamCounts struct {
	verdicts, unfit, dups, strays int64
	busDropped                    uint64
}

func (st *stream) counts() streamCounts {
	return streamCounts{
		verdicts: st.obs.count.Load(), unfit: st.obs.unfit.Load(),
		dups: st.obs.dups.Load(), strays: st.obs.strays.Load(),
		busDropped: st.bus.Dropped(),
	}
}

func (c streamCounts) since(b streamCounts) streamCounts {
	return streamCounts{
		verdicts: c.verdicts - b.verdicts, unfit: c.unfit - b.unfit,
		dups: c.dups - b.dups, strays: c.strays - b.strays,
		busDropped: c.busDropped - b.busDropped,
	}
}

// checkStream is the stream half of the ingest oracle for one round of
// `lines` published lines. On a clean stream every line yields exactly one
// fit verdict; on a lossy one the count identity is left to the epoch
// (see ingestEpoch.finish) but no line may ever be answered twice.
func checkStream(s *roundSample, r, lines int, c streamCounts, lossy bool) {
	if !lossy && int(c.verdicts) != lines {
		s.fail(abs(lines-int(c.verdicts)), fmt.Sprintf("round %d: %d verdicts for %d lines", r, c.verdicts, lines))
	}
	if c.dups > 0 {
		s.fail(int(c.dups), fmt.Sprintf("round %d: %d lines yielded a second verdict", r, c.dups))
	}
	if c.strays > 0 {
		s.fail(int(c.strays), fmt.Sprintf("round %d: %d verdicts for no generated line", r, c.strays))
	}
	if c.busDropped > 0 {
		s.fail(int(c.busDropped), fmt.Sprintf("round %d: bus dropped %d events", r, c.busDropped))
	}
	if !lossy && c.unfit > 0 {
		s.fail(int(c.unfit), fmt.Sprintf("round %d: %d lines of a clean trace judged unfit", r, c.unfit))
	}
	s.count("conformance.unfit", float64(c.unfit))
}

// roundHooks are a workload's additions to the common round.
type roundHooks struct {
	// afterEach runs after every burst line.
	afterEach func()
	// between runs between the two slices, outside both timed windows.
	between func()
	// repaired, consulted after the round, names paced lines (by unit
	// index) whose latency is repair time, not service time: they count
	// towards the round's p95 only.
	repaired func() map[int]bool
}

// driveRound runs one round's two slices and fills in everything but the
// per-operation oracle: the burst slice yields the cost metrics, the paced
// slice the result latencies.
func (st *stream) driveRound(r int, rd ingestRound, h roundHooks) roundSample {
	var s roundSample
	c0 := st.counts()

	s.timeBurst(len(rd.burst), func() time.Time {
		st.publishBurst(rd.burst, h.afterEach)
		return time.Unix(0, st.obs.last.Load())
	})

	if h.between != nil {
		h.between()
	}

	due, late, delayed := st.publishPaced(rd.paced)
	s.lateness = late
	var repaired map[int]bool
	if h.repaired != nil {
		repaired = h.repaired()
	}
	for i, ev := range rd.paced {
		u := unitIndex(ev.Timestamp)
		got := st.obs.recv[u]
		if got == 0 || delayed[i] {
			continue // chaos-dropped or tap-delayed: judged by the oracle, not timed
		}
		lat := time.Unix(0, got).Sub(due[i])
		if h.repaired != nil {
			s.tail = append(s.tail, lat)
		}
		if !repaired[u] {
			s.latencies = append(s.latencies, lat)
		}
	}

	s.attempted = len(rd.burst) + len(rd.paced)
	checkStream(&s, r, s.attempted, st.counts().since(c0), st.lossy)
	return s
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
