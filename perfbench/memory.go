package main

import (
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// memSampler tracks the peak of the memory the Go runtime holds from the OS
// — everything it mapped, less what it released back — sampled every
// millisecond. A peak taken per repetition and reported as a median is
// steadier than the process's lifetime peak RSS, which one late garbage
// collection on a loaded machine can raise for the whole run.
type memSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

var memMetrics = []string{"/memory/classes/total:bytes", "/memory/classes/heap/released:bytes"}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := make([]metrics.Sample, len(memMetrics))
	for i, name := range memMetrics {
		samples[i].Name = name
	}
	read := func() {
		metrics.Read(samples)
		held := samples[0].Value.Uint64() - samples[1].Value.Uint64()
		if held > m.peak.Load() {
			m.peak.Store(held)
		}
	}
	read()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return m
}

// finish stops the sampler and returns the peak in MB (10^6 bytes).
func (m *memSampler) finish() float64 {
	close(m.stop)
	<-m.done
	return float64(m.peak.Load()) / 1e6
}
