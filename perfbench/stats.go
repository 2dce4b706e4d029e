package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// Samples holds every latency of one measured series, in milliseconds. A
// failed or shed op is recorded as +Inf: it misses every latency limit, so it
// sorts past every real sample and can never improve a quantile.
type Samples struct {
	v []float64
}

func (s *Samples) Add(d time.Duration) { s.v = append(s.v, float64(d)/float64(time.Millisecond)) }

func (s *Samples) Fail() { s.v = append(s.v, math.Inf(1)) }

func (s *Samples) N() int { return len(s.v) }

// Quantile is the exact nearest-rank quantile of every recorded sample: the
// smallest sample with at least q of the samples at or below it. No
// interpolation and no bucketing, so the value is always a measured latency.
func (s *Samples) Quantile(q float64) float64 {
	if len(s.v) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), s.v...)
	sort.Float64s(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// Beyond counts the samples strictly above the q quantile: the support a
// reported tail percentile has.
func (s *Samples) Beyond(q float64) int {
	x := s.Quantile(q)
	n := 0
	for _, v := range s.v {
		if v > x {
			n++
		}
	}
	return n
}

func (s *Samples) Mean() float64 {
	if len(s.v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.v {
		sum += v
	}
	return sum / float64(len(s.v))
}

func median(xs []float64) float64 {
	s := Samples{v: xs}
	return s.Quantile(0.5)
}

func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// heapSampler samples the Go heap (live and not yet collected objects, from
// runtime/metrics) every 2ms while a measured phase runs. The reported peak
// is the 95th percentile of the samples: the top of the heap's sawtooth as
// the collector paces it, which one transient allocation cannot move.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples Samples // bytes
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap() float64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.samples.v = append(h.samples.v, readHeap())
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.samples.v = append(h.samples.v, readHeap())
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler to exit, and returns the peak
// in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return h.samples.Quantile(0.95) / (1 << 20)
}

// runtimeCounters is a point-in-time reading of the allocator and GC
// counters the runtime layer metrics difference.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNs    uint64
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
}
