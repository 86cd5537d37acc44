package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"crossbow"
	"crossbow/internal/ckpt"
	"crossbow/internal/data"
	"crossbow/internal/metrics"
	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// The serving configuration is crossbow-serve's default static batching.
const (
	serveMaxBatch = 8
	serveMaxDelay = 2 * time.Millisecond
	// latencyLimitMs is the p99 limit a ladder rate must meet.
	latencyLimitMs = 25.0
	// checkEvery and maxChecked pick the answers compared against a
	// reference forward pass.
	checkEvery = 7
	maxChecked = 600
)

// The load runs in cycles of about cycleLen: each cycle is a low-rate and a
// high-rate open-loop phase of lowShare and highShare of the cycle, then a
// closed-loop saturation phase of saturationShare whose completion rate is
// the service's capacity. The host's speed drifts over seconds; interleaving
// the phases spreads every figure over the whole run, so a slow spell moves
// a few slices of each figure, not all of one. The traced run then climbs a
// ladder of one-second open-loop rungs until a rung misses the latency limit
// or grows a backlog; the highest rung met is the maximum rate.
const (
	lowRate         = 150.0 // requests/s
	highRate        = 1000.0
	cycleLen        = 3 * time.Second
	lowShare        = 0.2
	highShare       = 0.25
	saturationShare = 0.45
	// saturationClients per replica keep every batch full.
	saturationClients = 4 * serveMaxBatch
	rungDur           = time.Second
	warmupDur         = 500 * time.Millisecond
)

var serveLadder = []float64{2000, 4000, 6000, 8000, 10000, 12500, 15000}

// serveStack is one publisher feeding one cold-started follower predictor.
type serveStack struct {
	pub  *crossbow.ModelPublisher
	pred *crossbow.Predictor
}

// startServeStack starts a publisher on a loopback port, publishes first and
// starts a predictor that follows the feed. Serve returns once the first
// snapshot has arrived, so nothing waits on the publisher's subscriber count.
func startServeStack(first crossbow.Snapshot) (*serveStack, error) {
	pub, err := crossbow.NewModelPublisher("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("start publisher: %w", err)
	}
	if err := pub.Publish(first); err != nil {
		pub.Close()
		return nil, fmt.Errorf("publish round %d: %w", first.Round, err)
	}
	pred, err := crossbow.Serve(crossbow.ServeConfig{
		Follow:        pub.Addr(),
		FollowTimeout: 30 * time.Second,
		Replicas:      runtime.NumCPU(),
		MaxBatch:      serveMaxBatch,
		MaxDelay:      serveMaxDelay,
	})
	if err != nil {
		pub.Close()
		return nil, fmt.Errorf("start follower: %w", err)
	}
	return &serveStack{pub: pub, pred: pred}, nil
}

func (s *serveStack) close() {
	s.pred.Close()
	s.pub.Close()
}

// recordEpochs is the length of the recorded stream. Two epochs give about
// 128 snapshots: republished over the run, about 30 of them land in the
// high-rate phases, where freshness is measured.
const recordEpochs = 2

// recordStream records the snapshot stream the feed republishes:
// recordEpochs of the tta-resnet32 training configuration, publishing every
// round.
func recordStream(seed uint64) ([]crossbow.Snapshot, error) {
	var snaps []crossbow.Snapshot
	cfg := ttaConfig(seed)
	cfg.TargetAccuracy = 0
	cfg.MaxEpochs = recordEpochs
	cfg.PublishEvery = 1
	cfg.OnSnapshot = func(s crossbow.Snapshot) { snaps = append(snaps, s) } // lockstep: called on Train's goroutine
	if _, err := crossbow.Train(cfg); err != nil {
		return nil, fmt.Errorf("record snapshot stream: %w", err)
	}
	if len(snaps) < 2 {
		return nil, fmt.Errorf("record snapshot stream: %d snapshots", len(snaps))
	}
	return snaps, nil
}

// serveOutcome is what one serve-feed run measured.
type serveOutcome struct {
	snaps          []crossbow.Snapshot
	low, high, sat []*phase    // one of each per cycle
	ladder         []*phase    // traced runs only
	published      []time.Time // publish time per snapshot index (zero: never)
	stats          crossbow.ServingStats
	feed           crossbow.FeedStats
	// lowOccupancy is the requests per computed batch during the low-rate
	// phases.
	lowOccupancy float64
}

// measured returns every measured phase in the order it ran.
func (o *serveOutcome) measured() []*phase {
	var ps []*phase
	for c := range o.low {
		ps = append(ps, o.low[c], o.high[c], o.sat[c])
	}
	return append(ps, o.ladder...)
}

// latenciesMs pools the request latencies of phases.
func latenciesMs(ps []*phase) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.latenciesMs()...)
	}
	return out
}

func runServeFeed(r *run) error {
	_, err := serveFeed(r)
	return err
}

// serveFeed runs the serve-feed workload and records its end-to-end metrics.
func serveFeed(r *run) (*serveOutcome, error) {
	snaps, err := recordStream(r.seed)
	if err != nil {
		return nil, err
	}
	inputs := requestInputs(r.seed)

	// Set-up: publisher plus cold follower, setupRepeats times; the last
	// stack serves the load.
	var setups []float64
	var st *serveStack
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
			runtime.GC()
		}
		t0 := time.Now()
		if st, err = startServeStack(snaps[0]); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()
	r.set("setup_s", metrics.Median(setups))

	out := &serveOutcome{snaps: snaps, published: make([]time.Time, len(snaps))}
	predict := func(i int) (int, float32, int64, error) {
		p, err := st.pred.Predict(inputs.Sample(i))
		return p.Class, p.Confidence, p.Version, err
	}
	depth := func() int { return st.pred.Stats().QueueDepth }

	// Republish the recorded stream on a fixed cadence while the load runs:
	// model swaps (writes) alongside predictions (reads). The cadence spreads
	// the stream over the longest the load can last.
	cycles := max(1, int(math.Round(r.seconds.Seconds()/cycleLen.Seconds())))
	cycle := r.seconds / time.Duration(cycles)
	lowDur := time.Duration(float64(cycle) * lowShare)
	highDur := time.Duration(float64(cycle) * highShare)
	satDur := time.Duration(float64(cycle) * saturationShare)
	longest := warmupDur + time.Duration(cycles)*(lowDur+highDur+satDur)
	if r.traced {
		longest += time.Duration(len(serveLadder)) * rungDur
	}
	cadence := longest / time.Duration(len(snaps)-1)
	stop := make(chan struct{})
	republished := make(chan error, 1)
	go func() {
		tick := time.NewTicker(cadence)
		defer tick.Stop()
		for i := 1; i < len(snaps); i++ {
			select {
			case <-stop:
				republished <- nil
				return
			case <-tick.C:
			}
			out.published[i] = time.Now()
			if err := st.pub.Publish(snaps[i]); err != nil {
				republished <- fmt.Errorf("publish round %d: %w", snaps[i].Round, err)
				return
			}
		}
		republished <- nil
	}()

	rng := rand.New(rand.NewSource(int64(r.seed)))
	// A short warm-up lets lazy set-up and the first model swap finish
	// before anything is timed; its requests count as operations.
	warm := &phase{name: "warm-up", rate: highRate, dur: warmupDur}
	runPhase(warm, rng, inputs.Len(), predict, depth)

	var lowReqs, lowBatches int64
	var satCPU float64
	for c := 1; c <= cycles; c++ {
		low := &phase{name: fmt.Sprintf("low-%d", c), rate: lowRate, dur: lowDur}
		high := &phase{name: fmt.Sprintf("high-%d", c), rate: highRate, dur: highDur}
		sat := &phase{name: fmt.Sprintf("sat-%d", c), dur: satDur}
		before := st.pred.Stats()
		runPhase(low, rng, inputs.Len(), predict, depth)
		after := st.pred.Stats()
		lowReqs += after.Requests - before.Requests
		lowBatches += after.Batches - before.Batches
		// Memory is taken in the first high-rate phase, before the
		// saturation phases' request records exist: they are the
		// benchmark's own, and their number follows the host's speed.
		var mem *memSampler
		if c == 1 {
			mem = startMemSampler()
		}
		runPhase(high, rng, inputs.Len(), predict, depth)
		if mem != nil {
			r.set("memory_mb", mem.finish())
		}
		cpu0 := cpuSeconds()
		runClosedLoop(sat, runtime.NumCPU()*saturationClients, rng, inputs.Len(), predict)
		satCPU += cpuSeconds() - cpu0
		out.low, out.high, out.sat = append(out.low, low), append(out.high, high), append(out.sat, sat)
	}
	if lowBatches > 0 {
		out.lowOccupancy = float64(lowReqs) / float64(lowBatches)
	}
	slack := backlogSlack(runtime.NumCPU(), serveMaxBatch)
	if r.traced {
		for _, rate := range serveLadder {
			p := &phase{name: fmt.Sprintf("%.0f/s", rate), rate: rate, dur: rungDur}
			runPhase(p, rng, inputs.Len(), predict, depth)
			out.ladder = append(out.ladder, p)
			if !p.meets(latencyLimitMs, slack) {
				break
			}
		}
	}
	close(stop)
	if err := <-republished; err != nil {
		return nil, err
	}
	out.stats = st.pred.Stats()
	out.feed = st.pub.Stats()

	for _, p := range append([]*phase{warm}, out.measured()...) {
		r.attempted += int64(len(p.reqs))
		f := p.failures()
		r.failed += int64(f)
		lat := p.latenciesMs()
		r.note("phase %-8s sent %5d failed %3d completed %7.1f/s p50 %7.3f ms p99 %8.3f ms (%d beyond) backlog growth %5.1f (queue %5.1f) late max %.3f ms meets %v",
			p.name, len(p.reqs), f, p.completedPerSec(), percentile(lat, 50), percentile(lat, 99),
			beyond(lat, percentile(lat, 99)), backlogGrowth(p.inflight), backlogGrowth(p.queueDepth),
			float64(p.lateMax)/1e6, p.meets(latencyLimitMs, slack))
	}
	// Freshness is taken in the high-rate phases: requests arrive about
	// every millisecond, so the wait for the next one after a swap stays
	// small next to the swap, and the queue is short, so no backlog of
	// requests batched before the swap sits between it and the answer.
	var fresh []float64
	for _, h := range out.high {
		fresh = append(fresh, out.freshnessMs(h.start, h.start.Add(h.elapsed))...)
	}
	// The capacity is the completion rate over all saturation phases
	// together: their mean, where a median of short windows would jump
	// between the host's fast and slow spells.
	var satDone int
	var satTime time.Duration
	for _, p := range out.sat {
		satDone += len(p.reqs) - p.failures()
		satTime += p.elapsed
	}
	r.check("every model version reaches answers", len(fresh) > 0, "%d rounds republished under load seen in answers", len(fresh))
	r.set("images_per_s", float64(satDone)/satTime.Seconds())
	r.set("time_to_result_s", metrics.Median(fresh)/1e3)
	r.set("latency_p50_ms", metrics.Median(latenciesMs(out.low)))
	r.set("cpu_ms_per_image", satCPU*1e3/float64(max(1, satDone)))
	r.note("feed: %d published, %d full (%d B), %d delta (%d B), %d resyncs; %d model swaps",
		out.feed.Published, out.feed.FullSent, out.feed.FullBytes, out.feed.DeltaSent, out.feed.DeltaBytes,
		out.feed.Resyncs, out.stats.ModelSwaps)

	checked, mismatches, err := checkAnswers(out, inputs)
	if err != nil {
		return nil, err
	}
	r.check("answers equal reference Predict", checked > 0 && mismatches == 0,
		"%d answers checked against nn.Network.Predict under their round's snapshot, %d differ", checked, mismatches)
	return out, nil
}

// requestInputs synthesizes the request inputs: test samples of the model's
// benchmark distribution, drawn from the workload seed.
func requestInputs(seed uint64) *data.Dataset {
	sc := data.ForModel(crossbow.ResNet32, seed+5, 0)
	sc.Train = 0
	_, test := data.Synthesize(sc)
	return test
}

// freshnessMs returns, for every round r republished between from and to
// that reached an answer, the time from Publish of r to the first answer
// from round r or later.
func (o *serveOutcome) freshnessMs(from, to time.Time) []float64 {
	type answer struct {
		done    time.Time
		version int64
	}
	var answers []answer
	for _, p := range o.measured() {
		for _, q := range p.reqs {
			if q.err == nil {
				answers = append(answers, answer{q.done, q.version})
			}
		}
	}
	sort.Slice(answers, func(i, j int) bool { return answers[i].done.Before(answers[j].done) })
	var out []float64
	for i, t := range o.published {
		if t.Before(from) || !t.Before(to) {
			continue
		}
		round := int64(o.snaps[i].Round)
		for _, a := range answers {
			if a.version >= round && !a.done.Before(t) {
				out = append(out, float64(a.done.Sub(t))/1e6)
				break
			}
		}
	}
	return out
}

// checkAnswers recomputes a sample of the answers with a reference
// nn.Network.Predict under the snapshot of the round each answer reports,
// and counts those whose class or confidence differ.
func checkAnswers(o *serveOutcome, inputs *data.Dataset) (checked, mismatches int, err error) {
	byRound := map[int64][]float32{}
	for _, s := range o.snaps {
		byRound[int64(s.Round)] = s.Params
	}
	picked := map[int64][]request{}
	n := 0
	for _, p := range o.measured() {
		for i, q := range p.reqs {
			if q.err != nil || i%checkEvery != 0 || n >= maxChecked {
				continue
			}
			if _, ok := byRound[q.version]; !ok {
				return 0, 0, fmt.Errorf("answer reports round %d, which was never published", q.version)
			}
			picked[q.version] = append(picked[q.version], q)
			n++
		}
	}
	ref := nn.BuildScaled(crossbow.ResNet32, serveMaxBatch, tensor.NewRNG(1))
	grad := make([]float32, ref.ParamSize())
	ref.AttachInferenceArena(tensor.NewArena(ref.InferPlan().ArenaElems))
	x := tensor.New(append([]int{serveMaxBatch}, ref.InShape...)...)
	vol := tensor.Volume(ref.InShape)
	preds := make([]int, serveMaxBatch)
	conf := make([]float32, serveMaxBatch)
	for _, round := range sortedRounds(picked) {
		ref.Bind(byRound[round], grad)
		qs := picked[round]
		for lo := 0; lo < len(qs); lo += serveMaxBatch {
			hi := min(lo+serveMaxBatch, len(qs))
			clear(x.Data())
			for j, q := range qs[lo:hi] {
				copy(x.Data()[j*vol:(j+1)*vol], inputs.Sample(q.input))
			}
			ref.Predict(x, preds, conf)
			for j, q := range qs[lo:hi] {
				checked++
				if preds[j] != q.class || math.Float32bits(conf[j]) != math.Float32bits(q.conf) {
					mismatches++
				}
			}
		}
	}
	return checked, mismatches, nil
}

func sortedRounds(m map[int64][]request) []int64 {
	var rounds []int64
	for r := range m {
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	return rounds
}

// tracedServeFeed runs serve-feed under a CPU profile and reports the serving,
// feed, checkpoint-delta and load-generator layers.
func tracedServeFeed(r *run) error {
	prof, err := startProfile()
	if err != nil {
		return err
	}
	t0, cpu0 := time.Now(), cpuSeconds()
	out, err := serveFeed(r)
	wall, cpu := time.Since(t0), cpuSeconds()-cpu0
	shares, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	r.setShares(shares)
	r.set("cpu_busy_share", cpu/(wall.Seconds()*float64(runtime.NumCPU())))

	st := out.stats
	r.set("serve.service_ms_p50", st.ServiceP50Ms)
	r.set("serve.service_ms_p99", st.ServiceP99Ms)
	r.set("serve.batch_occupancy", out.lowOccupancy)
	r.set("serve.useful_row_share", out.lowOccupancy/serveMaxBatch)
	r.set("serve.queue_peak", float64(st.QueuePeak))
	r.set("serve.shed", float64(st.Shed))
	r.set("serve.model_swaps", float64(st.ModelSwaps))
	fs := out.feed
	if sent := fs.FullSent + fs.DeltaSent; sent > 0 {
		r.set("feed.bytes_per_snapshot", float64(fs.FullBytes+fs.DeltaBytes)/float64(sent))
	}
	if fs.FullSent > 0 && fs.DeltaSent > 0 {
		r.set("feed.delta_to_full_ratio", (float64(fs.DeltaBytes)/float64(fs.DeltaSent))/(float64(fs.FullBytes)/float64(fs.FullSent)))
	}
	r.set("feed.resyncs", float64(fs.Resyncs))

	var late time.Duration
	for _, p := range out.measured() {
		late = max(late, p.lateMax)
	}
	r.set("loadgen.late_ms_max", float64(late)/1e6)
	rate, ok := maxRate(out.ladder, latencyLimitMs, backlogSlack(runtime.NumCPU(), serveMaxBatch))
	r.note("maximum rate %.1f requests/s (a rung met the limit: %v)", rate, ok)
	r.set("loadgen.max_rate_rps", rate)
	r.set("loadgen.p99_ms_low", percentile(latenciesMs(out.low), 99))
	high := latenciesMs(out.high)
	r.set("loadgen.p50_ms_high", percentile(high, 50))
	r.set("loadgen.p99_ms_high", percentile(high, 99))
	return deltaLayers(r, out.snaps)
}

// deltaLayers times ckpt.ComputeDelta, Delta.Apply and Predictor.UpdateParams
// over consecutive pairs of the recorded stream.
func deltaLayers(r *run, snaps []crossbow.Snapshot) error {
	pred, err := crossbow.Serve(crossbow.ServeConfig{
		Model: crossbow.ResNet32, Params: append([]float32(nil), snaps[0].Params...), Version: int64(snaps[0].Round),
		Replicas: runtime.NumCPU(), MaxBatch: serveMaxBatch, MaxDelay: serveMaxDelay,
	})
	if err != nil {
		return fmt.Errorf("start predictor: %w", err)
	}
	defer pred.Close()
	var compute, apply, update []float64
	shadow := append([]float32(nil), snaps[0].Params...)
	for i := 1; i < len(snaps); i++ {
		prev, next := snaps[i-1], snaps[i]
		t0 := time.Now()
		d, err := ckpt.ComputeDelta(string(next.Model), prev.Params, next.Params,
			int64(prev.Round), int64(next.Round), int64(next.Iter), 0)
		compute = append(compute, msSince(t0))
		if err != nil {
			return fmt.Errorf("compute delta to round %d: %w", next.Round, err)
		}
		t0 = time.Now()
		err = d.Apply(shadow)
		apply = append(apply, msSince(t0))
		if err != nil {
			return fmt.Errorf("apply delta to round %d: %w", next.Round, err)
		}
		t0 = time.Now()
		err = pred.UpdateParams(append([]float32(nil), next.Params...), int64(next.Round))
		update = append(update, msSince(t0))
		if err != nil {
			return fmt.Errorf("update model to round %d: %w", next.Round, err)
		}
	}
	last := snaps[len(snaps)-1].Params
	same := len(shadow) == len(last)
	for i := range last {
		same = same && math.Float32bits(shadow[i]) == math.Float32bits(last[i])
	}
	r.check("deltas rebuild the last snapshot", same, "%d deltas applied in order", len(snaps)-1)
	r.set("ckpt.compute_delta_ms", metrics.Median(compute))
	r.set("ckpt.apply_delta_ms", metrics.Median(apply))
	r.set("serve.update_model_ms", metrics.Median(update))
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
