package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"
)

// tailBeyond is how many samples must lie beyond the reported tail: the
// tail is the highest percentile with at least that many samples above it.
const tailBeyond = 10

// latencies is a sample of durations in milliseconds.
type latencies []float64

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sorted returns an ascending copy.
func (l latencies) sorted() []float64 {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile by linear interpolation between closest ranks.
func (l latencies) quantile(q float64) float64 {
	s := l.sorted()
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func (l latencies) p50() float64 { return l.quantile(0.5) }

// tail returns the sample with exactly tailBeyond samples above it and the
// percentile it sits at; with too few samples it is the maximum.
func (l latencies) tail() (value, pct float64) {
	s := l.sorted()
	if len(s) == 0 {
		return 0, 0
	}
	i := len(s) - 1 - tailBeyond
	if i < 0 {
		i = 0
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

func (l latencies) mean() float64 {
	if len(l) == 0 {
		return 0
	}
	var t float64
	for _, v := range l {
		t += v
	}
	return t / float64(len(l))
}

// median of a handful of repeated measurements.
func median(xs []float64) float64 { return latencies(xs).p50() }

// peakRSSMB is the process's peak resident set size so far, in MB: the
// memory a user of the program sees it take.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// passes runs op on every item of order in whole passes until the run's
// time is up. With a tracer, odd passes get it and even passes do not,
// so the traced run can compare the two on the same operations; it then
// runs at least two passes. It returns each pass's duration and the
// tracing overhead (mean traced pass over mean untraced pass; 0 untraced).
func passes(cfg config, tr *tracer, order []int, op func(i int, t *tracer)) (times []time.Duration, overhead float64) {
	var busy, plain, traced time.Duration
	for busy < cfg.duration() || (tr != nil && len(times) < 2) {
		t := tr
		if len(times)%2 == 0 {
			t = nil
		}
		start := time.Now()
		for _, i := range order {
			op(i, t)
		}
		d := time.Since(start)
		busy += d
		if t == nil {
			plain += d
		} else {
			traced += d
		}
		times = append(times, d)
	}
	if tr != nil {
		n := len(times)
		overhead = (float64(traced) / float64(n/2)) / (float64(plain) / float64((n+1)/2))
	}
	return times, overhead
}

// medianPass is the median pass duration in seconds.
func medianPass(times []time.Duration) float64 {
	s := make([]float64, len(times))
	for i, d := range times {
		s[i] = d.Seconds()
	}
	return median(s)
}
