package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"poddiagnosis/internal/clock"
)

// wallNow and wallSince read the process wall clock through internal/clock,
// as podlint rule GO001 requires of every time source in the repository.
func wallNow() time.Time                  { return clock.Wall.Now() }
func wallSince(t time.Time) time.Duration { return clock.Wall.Since(t) }

// meter is one reading of the process-wide cost counters. Readings are
// taken at slice boundaries only: ReadMemStats stops the world, so it must
// never run inside a timed window.
type meter struct {
	wall    time.Time
	cpu     time.Duration // getrusage user+sys
	mallocs uint64
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return meter{wall: wallNow(), cpu: cpu, mallocs: ms.Mallocs}
}

// peakRSSMB reads the process high-water RSS (VmHWM) in MiB; 0 when
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// roundSample is what one round contributes to the run's estimators.
type roundSample struct {
	// units, wall, cpu and mallocs cover the burst slice.
	units   int
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	// latencies are the round's result latencies (paced slice for the
	// ingest-shaped workloads, every unit for diagnose_storm).
	latencies []time.Duration
	// tail, when set, is the wider sample the round's p95 is taken over
	// (ingest_lossy: service time is read off the lines that went straight
	// through, repair time off all of them).
	tail []time.Duration
	// lateness is how late the open-loop generator published, per line.
	lateness []time.Duration
	// cal are the calibration kernel's readings around the burst slice.
	cal []time.Duration
	// attempted and failed count units against the workload's oracle.
	attempted int
	failed    int
	// notes are oracle failures, reported once per run.
	notes []string
	// counts are informational per-round counters (chaos.dropped, ...).
	counts map[string]float64
}

// timeBurst runs a burst slice between two readings of the cost counters
// and of the calibration kernel. run returns the instant the slice's last
// result became visible.
func (s *roundSample) timeBurst(units int, run func() time.Time) {
	cal0 := calibrate()
	m0 := readMeter()
	end := run()
	m1 := readMeter()
	s.cal = []time.Duration{cal0, calibrate()}
	s.units = units
	s.wall = end.Sub(m0.wall)
	s.cpu = m1.cpu - m0.cpu
	s.mallocs = m1.mallocs - m0.mallocs
}

func (s *roundSample) fail(n int, note string) {
	s.failed += n
	s.notes = append(s.notes, note)
}

func (s *roundSample) count(name string, v float64) {
	if s.counts == nil {
		s.counts = make(map[string]float64)
	}
	s.counts[name] += v
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
