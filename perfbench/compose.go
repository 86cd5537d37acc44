package main

import (
	"fmt"
	"runtime"
	"time"

	"crossbow"
	"crossbow/internal/core"
	"crossbow/internal/data"
	"crossbow/internal/engine"
	"crossbow/internal/memplan"
	"crossbow/internal/metrics"
	"crossbow/internal/nn"
	"crossbow/internal/tensor"
)

// The composed trainer wires the pieces crossbow.Train wires for one
// single-server SMA run — data.NewPipeline, nn.BuildScaled,
// memplan.OnlinePlanner, core.NewSMA and engine.NewRuntime — from their
// exported functions, in the same order and with the same seeds, so its
// trajectory is Train's (bit for bit under Lockstep). Its closures time the
// calls into each module as spans. It keeps Train's kernel-budget
// arbitration: k learners share the worker budget, and the SMA step and
// evaluation, which run with every learner parked, take all of it.

// Tracer lanes: the main goroutine, one per learner, and the FCFS round
// fold (run by whichever learner completes a round, one at a time).
const mainLane = 0

func learnerLane(j int) int { return 1 + j }

func applyLane(k int) int { return 1 + k }

// composed is the outcome of one composed run.
type composed struct {
	params         []float32
	series         []metrics.EpochPoint
	wall           []metrics.WallPoint
	epochsToTarget int
	stats          engine.RuntimeStats
	pool           memplan.PoolStats
	pipeCfg        data.PipelineConfig
	train          *data.Dataset
	k              int
	tasks          int
	epochTime      time.Duration // summed RunEpoch wall time
	mainTime       time.Duration // set-up through the last epoch's evaluation
}

// layerKinds are the top-level layer kinds the nn spans are named after.
var layerKinds = []string{"conv2d", "batchnorm", "relu", "residual", "pool", "dense"}

// layerSpans names a top-level layer's forward and backward spans by its
// kind. The names are built once per kind, so tracing a task allocates no
// strings.
func layerSpans(l nn.Layer) (fwd, bwd string) {
	kind := "other"
	switch l.Name() {
	case "conv2d", "batchnorm", "relu", "residual", "dense":
		kind = l.Name()
	case "maxpool", "gavgpool", "flatten":
		kind = "pool"
	}
	names := spanNames[kind]
	return names[0], names[1]
}

var spanNames = func() map[string][2]string {
	m := map[string][2]string{}
	for _, k := range append(layerKinds, "other") {
		m[k] = [2]string{"nn." + k + ".fwd", "nn." + k + ".bwd"}
	}
	return m
}()

// trainEnv is a composed run's set-up: everything crossbow.Train builds
// before its first epoch.
type trainEnv struct {
	cfg        crossbow.Config
	k          int
	train      *data.Dataset
	test       *data.Dataset
	sma        *core.SMA
	pool       *memplan.OnlinePlanner
	pipeCfg    data.PipelineConfig
	pipe       *data.Pipeline
	rt         *engine.Runtime
	evalNet    *nn.Network
	evalGrad   []float32
	evalX      *tensor.Tensor
	evalLabels []int
	evalIdx    []int
	restore    int // active learners before the run
}

// newTrainEnv builds cfg's environment, recording spans into tr (nil
// records none). It accepts the single-server SMA configurations of the
// training workloads.
func newTrainEnv(cfg crossbow.Config, tr *tracer) (*trainEnv, error) {
	if cfg.Algo != crossbow.SMA || cfg.Servers > 1 || cfg.KernelMode != crossbow.Deterministic || cfg.LearnersPerGPU < 1 {
		return nil, fmt.Errorf("composed trainer: single-server deterministic SMA with fixed learners only")
	}
	lr := cfg.LearnRate
	if lr == 0 {
		lr = core.DefaultLearnRate(cfg.Model)
	}
	momentum := cfg.Momentum
	if momentum == 0 {
		momentum = 0.9
	}
	tau := max(1, cfg.Tau)
	prefetch := cfg.Prefetch
	if prefetch < 1 {
		prefetch = 2
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	k := learners(cfg)
	e := &trainEnv{cfg: cfg, k: k}

	dataCfg := data.ForModel(cfg.Model, seed, 0)
	if cfg.TrainSamples > 0 {
		dataCfg.Train = cfg.TrainSamples
	}
	if cfg.TestSamples > 0 {
		dataCfg.Test = cfg.TestSamples
	}
	e.train, e.test = data.Synthesize(dataCfg)
	master := tensor.NewRNG(seed + 7)
	nets := make([]*nn.Network, k)
	for j := range nets {
		nets[j] = nn.BuildScaled(cfg.Model, cfg.Batch, master.Split())
		nets[j].SetKernelMode(cfg.KernelMode)
	}
	w0 := nets[0].Init(tensor.NewRNG(seed + 13))
	ws, gs := make([][]float32, k), make([][]float32, k)
	for j := range nets {
		ws[j] = append([]float32(nil), w0...)
		gs[j] = make([]float32, len(w0))
		nets[j].Bind(ws[j], gs[j])
	}
	evalBatch := min(128, e.test.Len())
	e.evalNet = nn.BuildScaled(cfg.Model, evalBatch, tensor.NewRNG(seed+99))
	e.evalNet.SetKernelMode(cfg.KernelMode)
	e.evalNet.AttachArena(tensor.NewArena(e.evalNet.MemPlan().ArenaElems))
	e.evalGrad = make([]float32, len(w0))
	e.evalX = tensor.New(append([]int{evalBatch}, e.test.Shape...)...)
	e.evalLabels, e.evalIdx = make([]int, evalBatch), make([]int, evalBatch)
	for _, n := range nets {
		n.MemPlan()
	}
	plan := nets[0].MemPlan()
	planKey, arenaElems := plan.Key(), plan.ArenaElems
	e.pool = memplan.NewOnlinePlanner()
	e.pool.SetBudget(int64(tensor.WorkerBudget()+1) * int64(arenaElems) * 4)
	taskBufs := make([]*memplan.Buffer, k)
	heads := make([]*nn.SoftmaxCE, k)
	for j := range heads {
		heads[j] = nn.NewSoftmaxCE(cfg.Batch, nets[j].Classes)
	}

	e.sma = core.NewSMA(core.SMAConfig{
		LearnRate: lr, Momentum: momentum, LocalMomentum: momentum, Tau: tau,
		StateRanges: nets[0].StateRanges(),
	}, w0, k)
	e.pipeCfg = data.PipelineConfig{
		Batch: cfg.Batch, Slots: k * prefetch, Workers: min(4, max(1, k/2)), Seed: seed + 21,
	}
	e.pipe = data.NewPipeline(e.train, e.pipeCfg)
	e.restore = tensor.SetActiveLearners(k)

	pool, sma := e.pool, e.sma
	rc := engine.RuntimeConfig{
		Learners: k,
		Tau:      tau,
		Pipeline: e.pipe,
		Task: func(j int, s *data.Slot) float64 {
			l := learnerLane(j)
			tr.begin(l, "task")
			defer tr.end(l)
			tensor.ZeroSlice(gs[j])
			return lossAndGrad(tr, l, nets[j], heads[j], s.X, s.Labels)
		},
		AcquireTask: func(j int) {
			l := learnerLane(j)
			tr.begin(l, "acquire_task")
			tr.begin(l, "memplan.acquire")
			b := pool.Acquire(planKey, int64(arenaElems)*4, 1)
			tr.end(l)
			taskBufs[j] = b
			nets[j].AttachArena(tensor.ArenaOf(b.Data))
			tr.end(l)
		},
		ReleaseTask: func(j int) {
			l := learnerLane(j)
			tr.begin(l, "release_task")
			pool.Release(taskBufs[j])
			taskBufs[j] = nil
			tr.end(l)
		},
	}
	if cfg.Scheduler == crossbow.FCFS {
		corr := make([][]float32, k)
		for j := range corr {
			corr[j] = make([]float32, len(w0))
		}
		rc.Mode = engine.ModeFCFS
		rc.LocalStep = func(j int) {
			tr.begin(learnerLane(j), "core.local_step")
			sma.LocalStep(j, ws[j], gs[j])
			tr.end(learnerLane(j))
		}
		rc.Contribute = func(j int) {
			tr.begin(learnerLane(j), "core.contribute")
			sma.ContributeStep(j, ws[j], gs[j], corr[j])
			tr.end(learnerLane(j))
		}
		rc.Apply = func() {
			tr.begin(applyLane(k), "core.apply")
			sma.ApplyContributions(corr)
			tr.end(applyLane(k))
		}
	} else {
		rc.Mode = engine.ModeLockstep
		rc.Step = func() {
			prev := tensor.SetActiveLearners(1)
			tr.begin(mainLane, "core.sma_step")
			sma.Step(ws, gs)
			tr.end(mainLane)
			tensor.SetActiveLearners(prev)
		}
	}
	e.rt = engine.NewRuntime(rc)
	return e, nil
}

// close stops the runtime and the pipeline and restores the kernel budget.
func (e *trainEnv) close() {
	e.rt.Close()
	tensor.SetActiveLearners(e.restore)
	e.pipe.Close()
}

// composeTrain runs cfg through the composed trainer, recording spans into tr
// (nil records none).
func composeTrain(cfg crossbow.Config, tr *tracer) (*composed, error) {
	start := time.Now()
	tr.begin(mainLane, "setup")
	e, err := newTrainEnv(cfg, tr)
	tr.end(mainLane)
	if err != nil {
		return nil, err
	}
	defer e.close()
	c := e.run(tr)
	c.mainTime = time.Since(start)
	return c, nil
}

// run trains epochs until the target or MaxEpochs, evaluating the central
// model after each, as crossbow.Train does.
func (e *trainEnv) run(tr *tracer) *composed {
	cfg, k := e.cfg, e.k
	c := &composed{k: k, epochsToTarget: -1, pipeCfg: e.pipeCfg, train: e.train}
	iters := max(1, (e.train.Len()/cfg.Batch)/k)
	maxEpochs := cfg.MaxEpochs
	if maxEpochs <= 0 {
		maxEpochs = 30
	}
	evalBatch := len(e.evalIdx)
	for epoch := 1; epoch <= maxEpochs; epoch++ {
		tr.begin(mainLane, "epoch")
		t0 := time.Now()
		e.rt.RunEpoch(iters)
		wall := time.Since(t0)
		tr.end(mainLane)
		c.epochTime += wall
		c.tasks += iters * k
		lossSum, lossN := e.rt.TakeEpochLoss()
		c.wall = append(c.wall, metrics.WallPoint{
			Epoch: epoch, Sec: wall.Seconds(), ImagesPerSec: float64(iters*k*cfg.Batch) / wall.Seconds(),
		})

		tr.begin(mainLane, "evaluate")
		prev := tensor.SetActiveLearners(1)
		e.evalNet.Bind(e.sma.Average(), e.evalGrad)
		correct, total := 0, 0
		for lo := 0; lo+evalBatch <= e.test.Len(); lo += evalBatch {
			for i := range e.evalIdx {
				e.evalIdx[i] = lo + i
			}
			e.test.Gather(e.evalIdx, e.evalX, e.evalLabels)
			tr.begin(mainLane, "core.eval")
			correct += e.evalNet.Evaluate(e.evalX, e.evalLabels)
			tr.end(mainLane)
			total += evalBatch
		}
		tensor.SetActiveLearners(prev)
		tr.end(mainLane)
		acc := 0.0
		if total > 0 {
			acc = float64(correct) / float64(total)
		}
		c.series = append(c.series, metrics.EpochPoint{
			Epoch: epoch, TimeSec: float64(epoch), TestAcc: acc, Loss: lossSum / float64(max(1, lossN)),
		})
		if cfg.TargetAccuracy > 0 {
			if ep, ok := metrics.EpochsToAccuracy(c.series, cfg.TargetAccuracy); ok {
				c.epochsToTarget = ep
				break
			}
		}
	}
	c.params = append([]float32(nil), e.sma.Average()...)
	c.stats = e.rt.Stats()
	c.pool = e.pool.PoolStats()
	return c
}

// setupRepeats is how many times a run measures its set-up; the median is
// reported.
const setupRepeats = 15

// setupSeconds times the set-up of a training configuration: the composed
// environment, built from the exported pieces and seeds crossbow.Train
// builds before its first epoch, setupRepeats times. Each environment is
// collected before the next is built, so the repetitions do not raise the
// process's peak memory.
func setupSeconds(cfg crossbow.Config) (float64, error) {
	var xs []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		e, err := newTrainEnv(cfg, nil)
		if err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
		e.close()
		runtime.GC()
	}
	return metrics.Median(xs), nil
}

// lossAndGrad is nn.Network.LossAndGrad walked layer by layer from
// Network.Layers, with the loss head run through its own nn.SoftmaxCE, so
// each top-level layer's forward and backward pass is a span.
func lossAndGrad(tr *tracer, l int, net *nn.Network, head *nn.SoftmaxCE, x *tensor.Tensor, labels []int) float64 {
	layers := net.Layers()
	h := x
	for _, layer := range layers {
		fwd, _ := layerSpans(layer)
		tr.begin(l, fwd)
		h = layer.Forward(h, true)
		tr.end(l)
	}
	tr.begin(l, "nn.loss")
	loss, d := head.Loss(h, labels)
	tr.end(l)
	for i := len(layers) - 1; i >= 0; i-- {
		_, bwd := layerSpans(layers[i])
		tr.begin(l, bwd)
		d = layers[i].Backward(d)
		tr.end(l)
	}
	return loss
}

// result presents a composed run as a crossbow.Result for the workloads'
// correctness checks.
func (c *composed) result() *crossbow.Result {
	return &crossbow.Result{
		Series: c.series, EpochsToTarget: c.epochsToTarget, Params: c.params, Wall: c.wall, RuntimeStats: c.stats,
	}
}

// stagingRate measures how many batches per second the input pipeline
// stages on its own: a consumer that acquires and releases slots as fast as
// they arrive, for dur.
func stagingRate(train *data.Dataset, cfg data.PipelineConfig, dur time.Duration) float64 {
	pipe := data.NewPipeline(train, cfg)
	defer pipe.Close()
	n := 0
	t0 := time.Now()
	for time.Since(t0) < dur {
		s, ok := pipe.Acquire()
		if !ok {
			break
		}
		pipe.Release(s)
		n++
	}
	return float64(n) / time.Since(t0).Seconds()
}

// recordComposed reports the per-layer metrics of a composed run.
func recordComposed(r *run, c *composed, tr *tracer) {
	perTask := func(name string) float64 {
		d, _ := tr.total(name)
		return float64(d) / 1e6 / float64(max(1, c.tasks))
	}
	for _, kind := range layerKinds {
		r.set("nn."+kind+".fwd_ms", perTask("nn."+kind+".fwd"))
		r.set("nn."+kind+".bwd_ms", perTask("nn."+kind+".bwd"))
	}
	r.set("nn.loss_ms", perTask("nn.loss"))
	r.set("core.sma_step_ms", tr.meanMs("core.sma_step"))
	r.set("core.local_step_ms", tr.meanMs("core.local_step"))
	r.set("core.contribute_ms", tr.meanMs("core.contribute"))
	r.set("core.apply_ms", tr.meanMs("core.apply"))
	r.set("core.eval_ms", tr.meanMs("core.eval"))

	// Learner time inside the runtime's closures; the rest of k × the epoch
	// wall time the learners spent waiting.
	var busy time.Duration
	for j := 0; j < c.k; j++ {
		busy += tr.topLevel(learnerLane(j))
	}
	busy += tr.topLevel(applyLane(c.k))
	r.set("engine.idle_share", 1-busy.Seconds()/(float64(c.k)*c.epochTime.Seconds()))
	r.set("engine.round_waits", float64(c.stats.RoundWaits))
	r.set("engine.max_lead_iters", float64(c.stats.MaxLeadIters))

	r.set("memplan.acquire_ms", tr.meanMs("memplan.acquire"))
	r.set("memplan.budget_waits", float64(c.pool.BudgetWaits))
	if n := c.pool.Allocs + c.pool.Reuses; n > 0 {
		r.set("memplan.reuse_share", float64(c.pool.Reuses)/float64(n))
	}
	r.set("memplan.peak_mb", float64(c.pool.PeakBytes)/1e6)

	consumed := float64(c.tasks) / c.epochTime.Seconds() // batches per second
	r.set("data.staging_headroom", stagingRate(c.train, c.pipeCfg, 300*time.Millisecond)/consumed)

	// The main goroutine's top-level spans (set-up, epochs, evaluations)
	// should cover its wall time; what they leave is bookkeeping between them.
	r.set("trace.unaccounted_share", 1-tr.topLevel(mainLane).Seconds()/c.mainTime.Seconds())
	r.set("trace.images_per_s", metrics.Median(steadyIPS(c.wall)))
	if c.epochsToTarget > 0 {
		r.set("stat.epochs_to_target", float64(c.epochsToTarget))
	}
	loss := c.result().Series[len(c.series)-1].Loss
	r.set("stat.loss_at_end", loss)
	r.note("traced run: %d epochs, %d tasks, loss %.4f, pool %d allocs %d reuses", len(c.wall), c.tasks, loss, c.pool.Allocs, c.pool.Reuses)
}
