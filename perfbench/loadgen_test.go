package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {0.1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Fatal("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Fatal("no samples should give NaN")
	}
	// A failed request reads +Inf: it pushes the p99 past any limit once
	// more than 1% of requests fail.
	lat := make([]float64, 100)
	lat[0], lat[1] = math.Inf(1), math.Inf(1)
	if !math.IsInf(percentile(lat, 99), 1) {
		t.Fatal("2% failures must break the p99")
	}
	if got := beyond([]float64{1, 2, 3, 3}, 2); got != 2 {
		t.Fatalf("beyond = %d", got)
	}
}

func TestBacklogGrowth(t *testing.T) {
	flat := []int{3, 4, 3, 5, 4, 3, 4, 5}
	if g := backlogGrowth(flat); math.Abs(g) > 1 {
		t.Fatalf("steady backlog grew by %v", g)
	}
	var rising []int
	for i := 0; i < 40; i++ {
		rising = append(rising, 2*i)
	}
	if g := backlogGrowth(rising); g < 50 {
		t.Fatalf("rising backlog grew by only %v", g)
	}
	if g := backlogGrowth([]int{100, 1}); g != 0 {
		t.Fatalf("too few samples to judge should read 0, got %v", g)
	}
}

// fakePhase builds a finished phase with the given latencies (ms) and
// in-flight samples, one request per latency spread over one second.
func fakePhase(rate float64, lat []float64, inflight []int) *phase {
	p := &phase{rate: rate, dur: time.Second, inflight: inflight}
	t0 := time.Unix(1000, 0)
	for i, l := range lat {
		due := t0.Add(time.Duration(i) * time.Second / time.Duration(len(lat)))
		q := request{due: due, done: due}
		if math.IsInf(l, 1) {
			q.err = generatorFull{}
		} else {
			q.done = due.Add(time.Duration(l * 1e6))
		}
		p.reqs = append(p.reqs, q)
	}
	p.elapsed = time.Second
	return p
}

func TestMaxRateLadder(t *testing.T) {
	steady := []int{1, 2, 1, 2, 1, 2, 1, 2}
	growing := []int{1, 10, 40, 80, 120, 160, 200, 240}
	fast := make([]float64, 1000)
	for i := range fast {
		fast[i] = 2
	}
	slow := append([]float64(nil), fast...)
	for i := 0; i < 20; i++ {
		slow[i] = 40 // 2% over the limit: the p99 misses
	}
	failing := append([]float64(nil), fast...)
	for i := 0; i < 20; i++ {
		failing[i] = math.Inf(1)
	}
	const limit, slack = 25, 32
	cases := []struct {
		name   string
		phases []*phase
		want   float64 // completed requests/s of the best phase; 0 when none
	}{
		{"all meet", []*phase{fakePhase(100, fast[:100], steady), fakePhase(1000, fast, steady)}, 1000},
		{"slow top", []*phase{fakePhase(100, fast[:100], steady), fakePhase(1000, slow, steady)}, 100},
		{"backlog grows", []*phase{fakePhase(100, fast[:100], steady), fakePhase(1000, fast, growing)}, 100},
		{"failures miss", []*phase{fakePhase(100, fast[:100], steady), fakePhase(1000, failing, steady)}, 100},
		{"none meet", []*phase{fakePhase(100, slow[:100], growing)}, 0},
	}
	for _, c := range cases {
		got, ok := maxRate(c.phases, limit, slack)
		if ok != (c.want > 0) || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: maxRate = %v, %v; want %v", c.name, got, ok, c.want)
		}
	}
}

func TestRunPhaseOpenLoop(t *testing.T) {
	p := &phase{rate: 2000, dur: 250 * time.Millisecond}
	calls := 0
	predict := func(input int) (int, float32, int64, error) {
		time.Sleep(time.Millisecond)
		if input%10 == 0 {
			return 0, 0, 0, generatorFull{}
		}
		return input, 0.5, 7, nil
	}
	runPhase(p, rand.New(rand.NewSource(1)), 100, predict, func() int { calls++; return 0 })
	if len(p.reqs) != 500 {
		t.Fatalf("sent %d requests, want rate × duration = 500", len(p.reqs))
	}
	failed := 0
	for _, q := range p.reqs {
		if q.err != nil {
			failed++
			continue
		}
		if q.class != q.input || q.version != 7 || q.done.Before(q.due) {
			t.Fatalf("bad record %+v", q)
		}
	}
	if rate := p.completedPerSec(); rate < 1000 || rate > 4000 {
		t.Fatalf("completed %.0f/s of a 2000/s phase", rate)
	}
	if failed == 0 || failed != p.failures() {
		t.Fatalf("failures: counted %d, phase reports %d", failed, p.failures())
	}
	if len(p.inflight) == 0 || calls != len(p.inflight) {
		t.Fatalf("%d in-flight samples, %d queue-depth samples", len(p.inflight), calls)
	}
	// The same seed gives the same schedule and inputs.
	q := &phase{rate: 2000, dur: 250 * time.Millisecond}
	runPhase(q, rand.New(rand.NewSource(1)), 100, predict, nil)
	for i := range p.reqs {
		if p.reqs[i].input != q.reqs[i].input ||
			p.reqs[i].due.Sub(p.reqs[0].due) != q.reqs[i].due.Sub(q.reqs[0].due) {
			t.Fatalf("request %d differs between runs of one seed", i)
		}
	}
}
