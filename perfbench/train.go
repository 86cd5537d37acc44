package main

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"crossbow"
	"crossbow/internal/metrics"
)

// trainSamples is the default synthetic training set of the scaled models.
const trainSamples = 2048

// ttaConfig is the tta-resnet32 run: the paper's time-to-accuracy setting.
// The target sits where test accuracy still rises steeply: 85% lies on the
// plateau the scaled model reaches, where the epochs to cross it varied from
// 8 to 15 between seeds, while 80% is crossed after 6 to 8.
func ttaConfig(seed uint64) crossbow.Config {
	return crossbow.Config{
		Model: crossbow.ResNet32, Algo: crossbow.SMA, Scheduler: crossbow.Lockstep,
		GPUs: 1, LearnersPerGPU: 2, Batch: 16, KernelMode: crossbow.Deterministic,
		TargetAccuracy: 0.80, MaxEpochs: 30, Seed: seed,
	}
}

// smallBatchEpochs is the fixed length of one smallbatch-fcfs training run.
const smallBatchEpochs = 3

// smallBatchConfig is the smallbatch-fcfs run: the small-batch regime under
// the barrier-free scheduler.
func smallBatchConfig(seed uint64) crossbow.Config {
	return crossbow.Config{
		Model: crossbow.ResNet32, Algo: crossbow.SMA, Scheduler: crossbow.FCFS,
		GPUs: 1, LearnersPerGPU: 4, Batch: 2, Tau: 1,
		MaxEpochs: smallBatchEpochs, Seed: seed,
	}
}

// learners returns a single-server config's learner count k.
func learners(cfg crossbow.Config) int { return max(1, cfg.GPUs) * max(1, cfg.LearnersPerGPU) }

// itersPerEpoch mirrors the trainer: each iteration consumes one batch per
// learner.
func itersPerEpoch(cfg crossbow.Config) int {
	return max(1, trainSamples/cfg.Batch/learners(cfg))
}

// timedTrain is one timed crossbow.Train call.
type timedTrain struct {
	res  *crossbow.Result
	wall time.Duration
	cpu  float64
}

func trainTimed(cfg crossbow.Config) (timedTrain, error) {
	t0, cpu0 := time.Now(), cpuSeconds()
	res, err := crossbow.Train(cfg)
	t := timedTrain{res: res, wall: time.Since(t0), cpu: cpuSeconds() - cpu0}
	if err != nil {
		return t, fmt.Errorf("train: %w", err)
	}
	return t, nil
}

// repeat runs fn for i = 0, 1, ... while the run's measuring time lasts: it
// starts another repetition only when one more of the last one's length
// still fits. fn runs at least once. It records memory_mb, the median of the
// repetitions' memory peaks.
func (r *run) repeat(fn func(i int) error) error {
	begin := time.Now()
	var last time.Duration
	var peaks []float64
	for i := 0; i == 0 || time.Since(begin)+last <= r.seconds; i++ {
		t0 := time.Now()
		mem := startMemSampler()
		err := fn(i)
		peaks = append(peaks, mem.finish())
		if err != nil {
			return err
		}
		last = time.Since(t0)
	}
	r.set("memory_mb", metrics.Median(peaks))
	return nil
}

// steadyEpochs returns the epochs past the first (which pays first-touch
// costs), or all of them when there is only one.
func steadyEpochs[T any](wall []T) []T {
	if len(wall) > 1 {
		return wall[1:]
	}
	return wall
}

// trainTotals accumulates the end-to-end figures of repeated training runs.
// A run's time to result is the mean over its Train calls, not the median:
// the epochs to target are a whole number that varies with the seed, and
// the median of a few such runs jumps by a whole epoch where the mean moves
// by a fraction of one.
type trainTotals struct {
	setups, results, ips, stepMs []float64
	images, cpu                  float64
}

// addRun records one training run's wall and CPU time.
func (t *trainTotals) addRun(wall time.Duration, cpu float64) {
	t.results = append(t.results, wall.Seconds())
	t.cpu += cpu
}

// addEpochs records one learner pool's epochs; a synchronisation step
// trains imagesPerStep images.
func (t *trainTotals) addEpochs(epochs []metrics.WallPoint, imagesPerStep int) {
	for _, w := range steadyEpochs(epochs) {
		t.ips = append(t.ips, w.ImagesPerSec)
		t.stepMs = append(t.stepMs, 1e3*float64(imagesPerStep)/w.ImagesPerSec)
	}
	for _, w := range epochs {
		t.images += w.ImagesPerSec * w.Sec
	}
}

func (t *trainTotals) report(r *run) {
	r.set("setup_s", metrics.Median(t.setups))
	r.set("time_to_result_s", mean(t.results))
	r.set("images_per_s", metrics.Median(t.ips))
	r.set("latency_p50_ms", metrics.Median(t.stepMs))
	r.set("cpu_ms_per_image", t.cpu*1e3/math.Max(1, t.images))
}

// finiteLoss reports whether every epoch's training loss is finite.
func finiteLoss(res *crossbow.Result) bool {
	for _, p := range res.Series {
		if math.IsNaN(p.Loss) || math.IsInf(p.Loss, 0) {
			return false
		}
	}
	return len(res.Series) > 0
}

func lastLoss(res *crossbow.Result) float64 {
	if len(res.Series) == 0 {
		return math.NaN()
	}
	return res.Series[len(res.Series)-1].Loss
}

// runSingleServer measures the set-up of one single-server training
// configuration, then repeats the configuration for the run's measuring
// time; check validates each result.
func runSingleServer(r *run, config func(seed uint64) crossbow.Config, check func(r *run, cfg crossbow.Config, res *crossbow.Result)) error {
	var tot trainTotals
	setup, err := setupSeconds(config(r.subSeed(0)))
	if err != nil {
		return err
	}
	tot.setups = []float64{setup}
	err = r.repeat(func(i int) error {
		cfg := config(r.subSeed(i))
		k := learners(cfg)
		tr, err := trainTimed(cfg)
		if err != nil {
			r.attempted++
			r.failed++
			return err
		}
		r.attempted += int64(len(tr.res.Wall) * itersPerEpoch(cfg) * k)
		check(r, cfg, tr.res)
		tot.addRun(tr.wall, tr.cpu)
		tot.addEpochs(tr.res.Wall, k*cfg.Batch)
		r.note("seed %d: %d epochs in %.3f s, loss %.4f, best accuracy %.3f",
			cfg.Seed, len(tr.res.Wall), tr.wall.Seconds(), lastLoss(tr.res), tr.res.BestAccuracy)
		return nil
	})
	if err != nil {
		return err
	}
	tot.report(r)
	return nil
}

func checkTTA(r *run, cfg crossbow.Config, res *crossbow.Result) {
	r.check(fmt.Sprintf("seed %d reaches the target", cfg.Seed),
		res.EpochsToTarget > 0 && res.EpochsToTarget <= cfg.MaxEpochs && finiteLoss(res),
		"%.2f accuracy in %d epochs (max %d), final loss %.4f", cfg.TargetAccuracy, res.EpochsToTarget, cfg.MaxEpochs, lastLoss(res))
}

func checkSmallBatch(r *run, cfg crossbow.Config, res *crossbow.Result) {
	lead := res.RuntimeStats.MaxLeadIters
	r.check(fmt.Sprintf("seed %d FCFS lead ≤ 2τ", cfg.Seed), lead <= 2*cfg.Tau && finiteLoss(res),
		"max lead %d iterations (τ %d), final loss %.4f", lead, cfg.Tau, lastLoss(res))
}

func runTTA(r *run) error { return runSingleServer(r, ttaConfig, checkTTA) }

func runSmallBatch(r *run) error { return runSingleServer(r, smallBatchConfig, checkSmallBatch) }

// The cluster-tcp run: two ranks in this process, one learner each.
const (
	clusterRanks  = 2
	clusterEpochs = 2
	clusterBatch  = 4
)

func clusterConfig(seed uint64, rank int, peers []string, ln net.Listener) crossbow.Config {
	return crossbow.Config{
		Model: crossbow.ResNet32, Algo: crossbow.SMA, Transport: crossbow.TransportTCP,
		Servers: clusterRanks, GPUs: 1, LearnersPerGPU: 1, Batch: clusterBatch, TauGlobal: 1, KernelThreads: 1,
		MaxEpochs: clusterEpochs, Seed: seed,
		Node: crossbow.NodeConfig{
			Rank: rank, Peers: peers, Listener: ln,
			BootstrapWait: 10 * time.Second,
			// A cold cluster: no peer holds a snapshot to warm-start from.
			WarmStartWait: 50 * time.Millisecond,
			PeerTimeout:   10 * time.Second,
			DialBackoff:   10 * time.Millisecond,
		},
	}
}

// clusterRun is one training run of the whole cluster.
type clusterRun struct {
	res   [clusterRanks]*crossbow.Result
	wall  time.Duration // until the last rank returned
	setup time.Duration // until the last rank published its first round
	cpu   float64
}

// trainCluster trains the cluster once, every rank on loopback listeners
// bound to port 0. On TCP runs Train publishes a snapshot every round, and
// the first one marks the end of set-up.
func trainCluster(seed uint64) (clusterRun, error) {
	var c clusterRun
	peers := make([]string, clusterRanks)
	lns := make([]net.Listener, clusterRanks)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return c, fmt.Errorf("listen: %w", err)
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	var wg sync.WaitGroup
	var firstSnap [clusterRanks]atomic.Int64
	errs := make([]error, clusterRanks)
	t0, cpu0 := time.Now(), cpuSeconds()
	for rank := 0; rank < clusterRanks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := clusterConfig(seed, rank, peers, lns[rank])
			cfg.OnSnapshot = func(crossbow.Snapshot) { firstSnap[rank].CompareAndSwap(0, int64(time.Since(t0))) }
			c.res[rank], errs[rank] = crossbow.Train(cfg)
		}(rank)
	}
	wg.Wait()
	c.wall, c.cpu = time.Since(t0), cpuSeconds()-cpu0
	for rank, err := range errs {
		if err != nil {
			return c, fmt.Errorf("rank %d: %w", rank, err)
		}
		c.setup = max(c.setup, time.Duration(firstSnap[rank].Load()))
	}
	return c, nil
}

// checkCluster validates one cluster run: bit-identical final models, and no
// aborted or restarted rounds on a healthy loopback mesh.
func checkCluster(r *run, seed uint64, c clusterRun) {
	a, b := c.res[0].Params, c.res[1].Params
	same := len(a) == len(b) && len(a) > 0
	for i := 0; same && i < len(a); i++ {
		same = math.Float32bits(a[i]) == math.Float32bits(b[i])
	}
	r.check(fmt.Sprintf("seed %d ranks bit-identical", seed), same, "%d parameters compared", len(a))
	for rank, res := range c.res {
		ts := res.TransportStats
		r.check(fmt.Sprintf("seed %d rank %d healthy", seed, rank),
			ts.Aborts == 0 && ts.RestartRounds == 0 && ts.Rounds > 0 && finiteLoss(res),
			"%d rounds, %d aborts, %d restart rounds, final loss %.4f", ts.Rounds, ts.Aborts, ts.RestartRounds, lastLoss(res))
	}
}

func runCluster(r *run) error {
	var tot trainTotals
	err := r.repeat(func(i int) error {
		seed := r.subSeed(i)
		c, err := trainCluster(seed)
		if err != nil {
			r.attempted++
			r.failed++
			return err
		}
		checkCluster(r, seed, c)
		tot.setups = append(tot.setups, c.setup.Seconds())
		tot.addRun(c.wall, c.cpu)
		for _, res := range c.res {
			r.attempted += int64(len(res.Wall) * (trainSamples / clusterBatch))
			tot.addEpochs(res.Wall, clusterBatch)
		}
		r.note("seed %d: %d epochs per rank in %.3f s, set-up %.3f s, loss %.4f",
			seed, len(c.res[0].Wall), c.wall.Seconds(), c.setup.Seconds(), lastLoss(c.res[0]))
		return nil
	})
	if err != nil {
		return err
	}
	tot.report(r)
	return nil
}
