package main

import (
	"sync"
	"sync/atomic"
	"time"

	"poddiagnosis/internal/conformance"
	"poddiagnosis/internal/logging"
)

// progressEvery is how many verdicts pass between wake-ups of a generator
// blocked on the closed-loop window.
const progressEvery = 32

// verdictObserver is the benchmark's own bus subscriber: the one observer
// goroutine. It matches each conformance verdict back to the unit that
// caused it by the unique Timestamp the generator stamped, and records the
// wall instant the result became visible.
type verdictObserver struct {
	sub *logging.Subscription
	// recv[i] is the wall time (unix ns) unit i's verdict arrived, 0 if
	// none yet. Written only by the observer goroutine; readers first
	// load count, which orders the writes before them.
	recv []int64

	count    atomic.Int64 // verdicts seen
	dups     atomic.Int64 // units that yielded a second verdict
	unfit    atomic.Int64 // anomalous verdicts
	strays   atomic.Int64 // verdicts for no generated unit
	last     atomic.Int64 // unix ns of the latest verdict
	progress chan struct{}
	done     sync.WaitGroup
}

func observeVerdicts(bus *logging.Bus, units int) *verdictObserver {
	o := &verdictObserver{
		// 8192 is twice the closed-loop window plus the paced slice, so
		// the observer's own buffer can never be what drops a verdict.
		sub:      bus.SubscribeNamed("podbench", 8192, logging.TypeFilter(logging.TypeConformance)),
		recv:     make([]int64, units),
		progress: make(chan struct{}, 1),
	}
	o.done.Add(1)
	go o.run()
	return o
}

func (o *verdictObserver) run() {
	defer o.done.Done()
	fit := string(conformance.VerdictFit)
	for ev := range o.sub.C {
		now := wallNow().UnixNano()
		i := unitIndex(ev.Timestamp)
		switch {
		case i < 0 || i >= len(o.recv):
			o.strays.Add(1)
		case o.recv[i] != 0:
			o.dups.Add(1)
		default:
			o.recv[i] = now
		}
		if ev.Fields["verdict"] != fit {
			o.unfit.Add(1)
		}
		o.last.Store(now)
		if n := o.count.Add(1); n%progressEvery == 0 {
			o.wake()
		}
	}
}

func (o *verdictObserver) wake() {
	select {
	case o.progress <- struct{}{}:
	default:
	}
}

// wait blocks until a wake-up or d elapses; d bounds the wait because on
// the lossy workload the last outstanding line may have been dropped, in
// which case no verdict will ever announce completion.
func (o *verdictObserver) wait(d time.Duration) {
	t := time.NewTimer(d)
	select {
	case <-o.progress:
	case <-t.C:
	}
	t.Stop()
}

func (o *verdictObserver) stop() {
	o.sub.Cancel()
	o.done.Wait()
}
