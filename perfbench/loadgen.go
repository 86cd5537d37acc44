package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// request is one open-loop request's record. Each is written only by the
// goroutine that issued it and read after the phase's WaitGroup returns.
type request struct {
	due, done time.Time
	input     int // index of the input sample
	class     int
	conf      float32
	version   int64
	err       error
}

// phase is one fixed-rate segment of the open-loop load and its outcome.
type phase struct {
	name string
	rate float64 // offered requests/s
	dur  time.Duration

	reqs    []request
	lateMax time.Duration // how late the generator sent against its schedule
	// inflight samples the requests sent but not yet answered (queued,
	// executing, or blocked by backpressure) across the phase, with
	// queueDepth sampling Predictor.Stats().QueueDepth at the same points.
	// The backlog is judged on inflight: under backpressure the queue
	// stops at its bound while callers keep piling up behind it.
	inflight   []int
	queueDepth []int
	start      time.Time     // when the phase began
	elapsed    time.Duration // from start to the last answer
}

// predictFunc answers one request; it is Predictor.Predict in the
// benchmark and a stub in tests.
type predictFunc func(input int) (class int, conf float32, version int64, err error)

// maxInFlight bounds the goroutines one phase may have outstanding: a
// request that would exceed it is not sent and counts as failed.
const maxInFlight = 4096

// errGeneratorFull marks requests the generator could not send.
type generatorFull struct{}

func (generatorFull) Error() string { return "load generator: too many requests in flight" }

// runPhase drives one open-loop phase: a single goroutine walks a seeded
// Poisson schedule and hands each request to its own goroutine at its due
// time, whether or not earlier requests were answered. inputs picks each
// request's input; depth, if set, is sampled with the in-flight count every
// sampleEvery.
func runPhase(p *phase, rng *rand.Rand, inputs int, predict predictFunc, depth func() int) {
	const sampleEvery = 20 * time.Millisecond
	n := int(p.rate * p.dur.Seconds())
	p.reqs = make([]request, n)
	var wg sync.WaitGroup
	var inflight atomic.Int64
	start := time.Now()
	p.start = start
	due := start
	nextSample := start
	for i := 0; i < n; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / p.rate * float64(time.Second)))
		p.reqs[i].due = due
		p.reqs[i].input = rng.Intn(inputs)
		for {
			now := time.Now()
			if !now.Before(nextSample) {
				p.inflight = append(p.inflight, int(inflight.Load()))
				if depth != nil {
					p.queueDepth = append(p.queueDepth, depth())
				}
				nextSample = nextSample.Add(sampleEvery)
			}
			wait := due.Sub(now)
			if wait <= 0 {
				break
			}
			time.Sleep(min(wait, time.Until(nextSample)))
		}
		if late := time.Since(due); late > p.lateMax {
			p.lateMax = late
		}
		if inflight.Load() >= maxInFlight {
			p.reqs[i].done = time.Now()
			p.reqs[i].err = generatorFull{}
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(q *request) {
			defer wg.Done()
			q.class, q.conf, q.version, q.err = predict(q.input)
			q.done = time.Now()
			inflight.Add(-1)
		}(&p.reqs[i])
	}
	wg.Wait()
	p.finish()
}

// finish sets the phase's elapsed time from its last answer.
func (p *phase) finish() {
	last := p.start
	for i := range p.reqs {
		if p.reqs[i].done.After(last) {
			last = p.reqs[i].done
		}
	}
	p.elapsed = last.Sub(p.start)
}

// runClosedLoop keeps clients requests in flight for p.dur: each client
// sends its next request as soon as its previous one is answered, so the
// completion rate is the service's capacity. Latency runs from each send.
func runClosedLoop(p *phase, clients int, rng *rand.Rand, inputs int, predict predictFunc) {
	seeds := make([]int64, clients)
	for c := range seeds {
		seeds[c] = rng.Int63()
	}
	perClient := make([][]request, clients)
	var wg sync.WaitGroup
	p.start = time.Now()
	end := p.start.Add(p.dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cr := rand.New(rand.NewSource(seeds[c]))
			for time.Now().Before(end) {
				q := request{due: time.Now(), input: cr.Intn(inputs)}
				q.class, q.conf, q.version, q.err = predict(q.input)
				q.done = time.Now()
				perClient[c] = append(perClient[c], q)
			}
		}(c)
	}
	wg.Wait()
	for _, reqs := range perClient {
		p.reqs = append(p.reqs, reqs...)
	}
	p.finish()
}

// latenciesMs returns every request's latency from its due time; a failed
// request reads +Inf, so it misses any latency limit.
func (p *phase) latenciesMs() []float64 {
	out := make([]float64, len(p.reqs))
	for i, q := range p.reqs {
		if q.err != nil {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = float64(q.done.Sub(q.due)) / 1e6
	}
	return out
}

func (p *phase) failures() int {
	n := 0
	for _, q := range p.reqs {
		if q.err != nil {
			n++
		}
	}
	return n
}

// completedPerSec is the phase's answered requests per second of its
// elapsed time.
func (p *phase) completedPerSec() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(len(p.reqs)-p.failures()) / p.elapsed.Seconds()
}

// backlogGrowth is the number of requests by which the backlog grew across
// the phase: the mean in-flight count over the last quarter of the samples
// minus that over the first quarter.
func backlogGrowth(samples []int) float64 {
	q := len(samples) / 4
	if q == 0 {
		return 0
	}
	mean := func(s []int) float64 {
		t := 0
		for _, v := range s {
			t += v
		}
		return float64(t) / float64(len(s))
	}
	return mean(samples[len(samples)-q:]) - mean(samples[:q])
}

// backlogSlack is the growth a phase may show before its backlog counts as
// growing: two full batches on every replica.
func backlogSlack(replicas, maxBatch int) float64 { return float64(2 * replicas * maxBatch) }

// meets reports whether a phase sustained its rate: its p99 latency, with
// failed requests counted as missing, is within limitMs and its backlog did
// not grow.
func (p *phase) meets(limitMs, slack float64) bool {
	if len(p.reqs) == 0 {
		return false
	}
	return percentile(p.latenciesMs(), 99) <= limitMs && backlogGrowth(p.inflight) <= slack
}

// maxRate returns the completed requests/s of the highest-rate phase that
// meets the limit, given phases in ascending rate order, and whether any did.
func maxRate(phases []*phase, limitMs, slack float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range phases {
		if p.meets(limitMs, slack) {
			best, ok = p.completedPerSec(), true
		}
	}
	return best, ok
}
