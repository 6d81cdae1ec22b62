package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// runtimeSampler tracks the Go runtime across a traced run: GC cycles
// and pause time from MemStats at both ends, and the live-heap peak
// from runtime/metrics sampled every few milliseconds (the sample does
// not stop the world, unlike ReadMemStats).
type runtimeSampler struct {
	start runtime.MemStats
	stop  chan struct{}
	done  chan uint64
}

const heapSampleEvery = 5 * time.Millisecond

func startRuntimeSampler() *runtimeSampler {
	s := &runtimeSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	runtime.ReadMemStats(&s.start)
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, sample[0].Value.Uint64())
			}
			select {
			case <-s.stop:
				s.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and reports gc.cycles, gc.pause_ms and
// heap_peak_mb.
func (s *runtimeSampler) finish(rep *report) {
	close(s.stop)
	peak := <-s.done
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	rep.set("gc.cycles", float64(end.NumGC-s.start.NumGC), "count")
	rep.set("gc.pause_ms", float64(end.PauseTotalNs-s.start.PauseTotalNs)/1e6, "ms")
	rep.set("heap_peak_mb", float64(peak)/(1<<20), "MB")
}
