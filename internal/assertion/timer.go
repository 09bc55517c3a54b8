package assertion

import (
	"sync"
	"time"

	"poddiagnosis/internal/clock"
)

// TimerSet schedules one-off and periodic assertion triggers against a
// clock (§III.B.3: a one-off timer checks an assertion at a specific time
// point, e.g. when a step emits no completion log line; a periodic timer
// checks an assertion every so often while the operation runs, and can be
// re-aligned when the expected periodic log event arrives).
//
// StopAll cancels every outstanding timer and waits for in-flight
// callbacks; after StopAll the set rejects new timers.
type TimerSet struct {
	clk clock.Clock

	mu      sync.Mutex
	nextID  int
	timers  map[int]timerEntry
	stopped bool
	wg      sync.WaitGroup
}

// timerEntry is one registered timer. A one-off timer is a clock timer
// with no goroutine of its own; a periodic one is a ticker goroutine that
// ends when done is closed.
type timerEntry struct {
	stop func() bool   // one-off: stops the clock timer
	done chan struct{} // periodic: closed to end the ticker goroutine
}

// NewTimerSet returns an empty timer set.
func NewTimerSet(clk clock.Clock) *TimerSet {
	return &TimerSet{clk: clk, timers: make(map[int]timerEntry)}
}

// After schedules f once after d of clock time. The returned cancel
// function stops the timer if it has not fired; it is safe to call
// multiple times. No goroutine waits for the timer: the clock calls f.
// Whoever removes the timer from the set — its callback or a cancel —
// releases its hold on StopAll.
func (t *TimerSet) After(d time.Duration, f func()) (cancel func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return func() {}
	}
	id := t.nextID
	t.nextID++
	t.wg.Add(1)
	// The callback takes t.mu, which is held until the entry is stored.
	stop := t.clk.AfterFunc(d, func() {
		if !t.deregister(id) {
			return // cancelled: the canceller released the hold
		}
		defer t.wg.Done()
		f()
	})
	t.timers[id] = timerEntry{stop: stop}
	return func() { t.cancelID(id) }
}

// Every schedules f repeatedly with period d until cancelled. Reset the
// alignment by cancelling and re-registering (the log processor does this
// when the periodic log event arrives early).
func (t *TimerSet) Every(d time.Duration, f func()) (cancel func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return func() {}
	}
	id := t.nextID
	t.nextID++
	ch := make(chan struct{})
	t.timers[id] = timerEntry{done: ch}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		ticker := clock.NewTicker(t.clk, d)
		defer ticker.Stop()
		for {
			select {
			case <-ch:
				return
			case <-ticker.C:
				f()
			}
		}
	}()
	return func() { t.cancelID(id) }
}

// cancelID cancels a single timer.
func (t *TimerSet) cancelID(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.timers[id]; ok {
		delete(t.timers, id)
		t.release(e)
	}
}

// release stops a timer just removed from the set; t.mu is held. A one-off
// timer's callback finds itself deregistered and returns, so the hold it
// had on StopAll is released here.
func (t *TimerSet) release(e timerEntry) {
	if e.stop == nil {
		close(e.done)
		return
	}
	e.stop()
	t.wg.Done()
}

// deregister removes a fired one-off timer, reporting whether it was still
// registered (false means it lost a race with cancellation).
func (t *TimerSet) deregister(id int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.timers[id]; !ok {
		return false
	}
	delete(t.timers, id)
	return true
}

// StopAll cancels all timers and waits for callbacks already running to
// finish. The set cannot be reused afterwards.
func (t *TimerSet) StopAll() {
	t.mu.Lock()
	if !t.stopped {
		t.stopped = true
		for id, e := range t.timers {
			delete(t.timers, id)
			t.release(e)
		}
	}
	t.mu.Unlock()
	t.wg.Wait()
}

// Pending returns the number of scheduled, unfired timers.
func (t *TimerSet) Pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.timers)
}
