package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// calibrate times a fixed single-threaded integer loop (median of three).
// It does not depend on the program under test, so a shift in it between
// runs is host drift, not a regression.
func calibrate() float64 {
	var runs []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 30_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
		runs = append(runs, ms(time.Since(start)))
	}
	return median(runs)
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// heapSampler tracks the peak live heap (bytes marked live by the last
// garbage collection) while it runs.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

// startHeapSampler collects garbage first, so the live-heap figure the
// runtime reports starts from the phase's own heap and not from one
// marked during set-up.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak live heap in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

// allocCounter reads the process's cumulative heap allocation counters.
type allocCounter struct{ bytes, objects uint64 }

func readAllocs() allocCounter {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return allocCounter{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

func (a allocCounter) sub(b allocCounter) allocCounter {
	return allocCounter{a.bytes - b.bytes, a.objects - b.objects}
}

func (a allocCounter) add(b allocCounter) allocCounter {
	return allocCounter{a.bytes + b.bytes, a.objects + b.objects}
}
