package clock

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestRealNowAdvances(t *testing.T) {
	c := NewReal()
	a := c.Now()
	time.Sleep(2 * time.Millisecond)
	if !c.Now().After(a) {
		t.Fatal("real clock did not advance")
	}
}

func TestRealSleepHonoursContext(t *testing.T) {
	c := NewReal()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("Sleep with cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestRealSleepZeroCancelled(t *testing.T) {
	c := NewReal()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, 0); err != context.Canceled {
		t.Fatalf("Sleep(0) with cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestScaledPanicsOnNonPositiveScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewScaled(0) did not panic")
		}
	}()
	NewScaled(0, time.Now())
}

func TestScaledNowStartsAtEpoch(t *testing.T) {
	epoch := time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC)
	c := NewScaled(100, epoch)
	now := c.Now()
	if now.Before(epoch) {
		t.Fatalf("Now() = %v before epoch %v", now, epoch)
	}
	if now.Sub(epoch) > time.Second {
		t.Fatalf("Now() drifted %v from epoch immediately after construction", now.Sub(epoch))
	}
}

func TestScaledTimeRunsFaster(t *testing.T) {
	epoch := time.Unix(0, 0)
	c := NewScaled(1000, epoch)
	start := c.Now()
	time.Sleep(5 * time.Millisecond)
	elapsed := c.Since(start)
	// 5ms wall at 1000x should be roughly 5s of simulated time. Allow a
	// generous window for scheduler noise.
	if elapsed < 3*time.Second {
		t.Fatalf("scaled clock advanced only %v in 5ms wall at 1000x", elapsed)
	}
}

func TestScaledSleepCompressesWallTime(t *testing.T) {
	c := NewScaled(1000, time.Unix(0, 0))
	wallStart := time.Now()
	if err := c.Sleep(context.Background(), 2*time.Second); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	wall := time.Since(wallStart)
	if wall > 500*time.Millisecond {
		t.Fatalf("Sleep(2s sim) at 1000x took %v wall time", wall)
	}
}

func TestScaledAfterDelivers(t *testing.T) {
	c := NewScaled(1000, time.Unix(0, 0))
	fired := make(chan struct{})
	c.AfterFunc(time.Second, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("AfterFunc(1s sim) at 1000x did not fire within 2s wall")
	}
}

func TestScaledAfterFuncStopPreventsCall(t *testing.T) {
	c := NewScaled(1000, time.Unix(0, 0))
	var called atomic.Bool
	stop := c.AfterFunc(300*time.Second, func() { called.Store(true) }) // 300ms wall
	if !stop() {
		t.Fatal("stop() = false on a timer that had not fired")
	}
	if stop() {
		t.Fatal("second stop() = true")
	}
	time.Sleep(350 * time.Millisecond)
	if called.Load() {
		t.Fatal("stopped timer called f")
	}
}

func TestScaledSleepCancelled(t *testing.T) {
	c := NewScaled(1, time.Unix(0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	if err := c.Sleep(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("Sleep = %v, want context.Canceled", err)
	}
}

func TestTickerTicksAndStops(t *testing.T) {
	c := NewScaled(1000, time.Unix(0, 0))
	tk := NewTicker(c, time.Second) // 1ms wall
	defer tk.Stop()
	for i := 0; i < 3; i++ {
		select {
		case <-tk.C:
		case <-time.After(time.Second):
			t.Fatalf("tick %d did not arrive", i)
		}
	}
}

func TestDistFixed(t *testing.T) {
	d := Fixed(42 * time.Millisecond)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if got := d.Sample(rng); got != 42*time.Millisecond {
			t.Fatalf("Fixed sample = %v", got)
		}
	}
}

func TestDistZeroSamplesZero(t *testing.T) {
	var d Dist
	if !d.IsZero() {
		t.Fatal("zero Dist not IsZero")
	}
	if got := d.Sample(nil); got != 0 {
		t.Fatalf("zero Dist sample = %v", got)
	}
}

func TestDistClamping(t *testing.T) {
	d := Dist{Mean: 100 * time.Millisecond, StdDev: time.Hour,
		Min: 90 * time.Millisecond, Max: 110 * time.Millisecond}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		v := d.Sample(rng)
		if v < d.Min || v > d.Max {
			t.Fatalf("sample %v outside clamp [%v,%v]", v, d.Min, d.Max)
		}
	}
}

func TestDistAroundProperties(t *testing.T) {
	// Property: for any positive mean, Around samples stay within
	// [mean/2, mean*2] and are never negative.
	f := func(ms uint16) bool {
		mean := time.Duration(int64(ms)+1) * time.Millisecond
		d := Around(mean)
		rng := rand.New(rand.NewSource(int64(ms)))
		for i := 0; i < 50; i++ {
			v := d.Sample(rng)
			if v < mean/2 || v > mean*2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistSampleMeanConverges(t *testing.T) {
	d := Dist{Mean: 100 * time.Millisecond, StdDev: 10 * time.Millisecond}
	rng := rand.New(rand.NewSource(99))
	var sum time.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	avg := sum / n
	if avg < 95*time.Millisecond || avg > 105*time.Millisecond {
		t.Fatalf("sample mean %v far from 100ms", avg)
	}
}
