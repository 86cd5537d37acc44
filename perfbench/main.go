// Command perfbench is crossbow's benchmark. It runs one workload through the
// public API (crossbow.Train, crossbow.Serve, crossbow.NewModelPublisher),
// checks that the outputs are correct, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with no
// tracing. With -trace 1 a separate traced run times calls into each module's
// exported functions from this package and reports the per-layer metrics;
// its spans are written as Chrome trace-event JSON under .bench_build/.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload tta-resnet32 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark workload: a set of inputs derived from the seed,
// run through the public API, with its own correctness checks.
type workload struct {
	name string
	// why records what the workload loads heavily, and so which later
	// change it is meant to show.
	why string
	run func(r *run) error
	// traced runs the same workload with spans around calls into each
	// module (the per-layer metrics).
	traced func(r *run) error
}

var workloads = []workload{
	{
		name:   "tta-resnet32",
		why:    "the paper's headline: ResNet-32 to 80% test accuracy, 2 lockstep learners at batch 16; conv lowering, GEMM and the idle core (tensor, nn) decide it",
		run:    runTTA,
		traced: tracedTTA,
	},
	{
		name:   "smallbatch-fcfs",
		why:    "small-batch regime: 4 FCFS learners at batch 2, tau 1; the SMA fold (core), dispatch (engine), arena checkout (memplan) and staging (data) weigh next to the kernels",
		run:    runSmallBatch,
		traced: tracedSmallBatch,
	},
	{
		name:   "cluster-tcp",
		why:    "two in-process ranks on loopback TCP, batch 4, global exchange every round; the only workload running the transport collectives and core.DistClusterSMA",
		run:    runCluster,
		traced: tracedCluster,
	},
	{
		name:   "serve-feed",
		why:    "open-loop Poisson load on a follower predictor while recorded snapshots are republished; the only workload running serve, ckpt deltas and the model feed",
		run:    runServeFeed,
		traced: tracedServeFeed,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// watchdog bounds a whole run: the process must exit within 180 s, so a hung
// workload is recorded as failed, with a goroutine dump, well before that.
const watchdog = 150 * time.Second

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed: drives dataset synthesis, shuffling, request inputs and arrival times")
	seconds := flag.Float64("seconds", 30, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	r := newRun(w.name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	fn := w.run
	if r.traced {
		fn = w.traced
	}

	done := make(chan error, 1)
	go func() { done <- fn(r) }()
	var err error
	report := r
	select {
	case err = <-done:
	case <-time.After(watchdog):
		buf := make([]byte, 1<<22)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "perfbench: %s hung for %v; goroutine dump:\n%s\n", w.name, watchdog, buf)
		// The hung workload still owns r: report from a fresh one.
		report = newRun(w.name, r.seed, r.seconds, r.traced)
		err = fmt.Errorf("watchdog: no result after %v", watchdog)
	}
	if err != nil {
		report.check("workload completed", false, "%v", err)
	}
	printReport(os.Stdout, w, report)
	if err != nil {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// run carries one benchmark run's settings and collects its results.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool

	values    map[string]float64
	attempted int64
	failed    int64
	checks    []checkResult
	notes     []string
}

type checkResult struct {
	name   string
	ok     bool
	detail string
}

func newRun(name string, seed uint64, seconds time.Duration, traced bool) *run {
	return &run{
		workload: name, seed: seed, seconds: seconds, traced: traced,
		values: map[string]float64{},
	}
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// check records a correctness check.
func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, checkResult{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// note records a line of context printed with the result.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// subSeed derives the seed of a workload's i-th repetition within one run.
// It is never zero (zero selects crossbow's default seed).
func (r *run) subSeed(i int) uint64 { return r.seed*1000 + uint64(i) + 1 }

func (r *run) correct() bool {
	if len(r.checks) == 0 {
		return false
	}
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printReport prints the environment, the checks and every metric by name
// and unit, then the JSON result as the last line.
func printReport(f *os.File, w workload, r *run) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	fmt.Fprintf(f, "workload %s seed %d seconds %.0f traced %v\n", w.name, r.seed, r.seconds.Seconds(), r.traced)
	fmt.Fprintf(f, "why: %s\n", w.why)
	fmt.Fprintf(f, "env: %s\n", environment())
	for _, n := range r.notes {
		fmt.Fprintf(f, "note: %s\n", n)
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(f, "check %-34s %-6s %s\n", c.name, status, c.detail)
	}
	res := jsonResult{
		Correct:   r.correct(),
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	if r.attempted < 1 {
		res.Failed = 1 // nothing ran: count the run itself as one failed operation
	}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(f, "metric %-30s %14.6g %-7s %s\n", d.name, v, d.unit, d.means)
	}
	fmt.Fprintf(f, "operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // only plain numbers and strings: a bug
	}
	fmt.Fprintln(f, string(b))
}

// metricDef names one reported metric. means says what it measures and, for
// a per-layer metric, which end-to-end metric it should move on which
// workload.
type metricDef struct {
	name, unit, better, means string
}

// endToEnd lists the metrics of the untraced run. Every workload reports
// each of them, so each is defined for training and for serving.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "median of repeated set-ups: single-server training builds what Train builds before its first epoch from the same exported pieces; cluster-tcp: Train until each rank's first round; serve-feed: publisher plus cold follower"},
	{"images_per_s", "img/s", "higher", "training: median steady-epoch images/s (per rank on cluster-tcp); serving: completed requests/s over the saturation phases, one image each, with the queue kept full by closed-loop clients"},
	{"time_to_result_s", "s", "lower", "tta-resnet32: mean Train wall time to the target; smallbatch-fcfs, cluster-tcp: mean wall time of the fixed-epoch Train; serve-feed: median time from Publish of round r to the first answer from round r or later, in the high-rate phases"},
	{"latency_p50_ms", "ms", "lower", "training: median wall time of one synchronisation step; serving: median request latency in the low-rate phases, timed from each request's due time"},
	{"cpu_ms_per_image", "ms", "lower", "process CPU time per image: training, over the measured Train calls; serving, over the saturation phases"},
	{"memory_mb", "MB", "lower", "peak memory the Go runtime holds from the OS (mapped minus released), median over repetitions (serve-feed: over the first high-rate phase)"},
}

// perLayer lists the metrics of the traced run. Every workload reports each
// of them; a layer the workload does not run reads 0.
var perLayer = []metricDef{
	{"tensor.im2col_share", "share", "lower", "CPU samples in tensor im2col → time_to_result_s, images_per_s on tta-resnet32; latency_p50_ms on serve-feed"},
	{"tensor.col2im_share", "share", "lower", "CPU samples in tensor col2im → time_to_result_s, images_per_s on tta-resnet32"},
	{"tensor.gemm_share", "share", "lower", "CPU samples in tensor GEMM kernels and packing → time_to_result_s, images_per_s on tta-resnet32; latency_p50_ms on serve-feed"},
	{"tensor.elementwise_share", "share", "lower", "CPU samples in tensor elementwise kernels → images_per_s on tta-resnet32"},
	{"cpu_busy_share", "share", "higher", "process CPU seconds / (wall × nproc) → images_per_s on tta-resnet32"},
	{"nn.conv2d.fwd_ms", "ms", "lower", "top-level conv2d forward per task → images_per_s on tta-resnet32"},
	{"nn.conv2d.bwd_ms", "ms", "lower", "top-level conv2d backward per task → images_per_s on tta-resnet32"},
	{"nn.batchnorm.fwd_ms", "ms", "lower", "top-level batchnorm forward per task → images_per_s on tta-resnet32"},
	{"nn.batchnorm.bwd_ms", "ms", "lower", "top-level batchnorm backward per task → images_per_s on tta-resnet32"},
	{"nn.relu.fwd_ms", "ms", "lower", "top-level relu forward per task → images_per_s on tta-resnet32"},
	{"nn.relu.bwd_ms", "ms", "lower", "top-level relu backward per task → images_per_s on tta-resnet32"},
	{"nn.residual.fwd_ms", "ms", "lower", "residual blocks forward per task → images_per_s on tta-resnet32"},
	{"nn.residual.bwd_ms", "ms", "lower", "residual blocks backward per task → images_per_s on tta-resnet32"},
	{"nn.pool.fwd_ms", "ms", "lower", "pooling and flatten forward per task → images_per_s on tta-resnet32"},
	{"nn.pool.bwd_ms", "ms", "lower", "pooling and flatten backward per task → images_per_s on tta-resnet32"},
	{"nn.dense.fwd_ms", "ms", "lower", "dense forward per task → images_per_s on tta-resnet32"},
	{"nn.dense.bwd_ms", "ms", "lower", "dense backward per task → images_per_s on tta-resnet32"},
	{"nn.loss_ms", "ms", "lower", "softmax cross-entropy head per task → images_per_s on tta-resnet32"},
	{"core.sma_step_ms", "ms", "lower", "SMA.Step per lockstep iteration → images_per_s on tta-resnet32"},
	{"core.local_step_ms", "ms", "lower", "SMA.LocalStep per call → images_per_s on smallbatch-fcfs"},
	{"core.contribute_ms", "ms", "lower", "SMA.ContributeStep per call → images_per_s on smallbatch-fcfs"},
	{"core.apply_ms", "ms", "lower", "SMA.ApplyContributions per round → images_per_s on smallbatch-fcfs"},
	{"core.eval_ms", "ms", "lower", "Network.Evaluate per test batch → time_to_result_s on tta-resnet32"},
	{"engine.idle_share", "share", "lower", "learner time outside the runtime closures → images_per_s on smallbatch-fcfs"},
	{"engine.round_waits", "count", "lower", "RuntimeStats.RoundWaits → images_per_s on smallbatch-fcfs"},
	{"engine.max_lead_iters", "iters", "lower", "RuntimeStats.MaxLeadIters (at most 2τ) → images_per_s on smallbatch-fcfs"},
	{"data.staging_headroom", "ratio", "higher", "standalone Pipeline Acquire/Release rate ÷ the workload's batch consumption rate → images_per_s on smallbatch-fcfs"},
	{"memplan.acquire_ms", "ms", "lower", "OnlinePlanner.Acquire per call → images_per_s on smallbatch-fcfs"},
	{"memplan.budget_waits", "count", "lower", "PoolStats.BudgetWaits → images_per_s on smallbatch-fcfs"},
	{"memplan.reuse_share", "share", "higher", "PoolStats reuses ÷ (allocs + reuses) → memory_mb"},
	{"memplan.peak_mb", "MB", "lower", "PoolStats.PeakBytes → memory_mb"},
	{"transport.round_ms_mean", "ms", "lower", "TransportStats.RoundMean, mean of ranks → images_per_s on cluster-tcp"},
	{"transport.collective_ms_mean", "ms", "lower", "TransportStats.CollectiveMean, mean of ranks → images_per_s on cluster-tcp"},
	{"transport.barrier_share", "share", "lower", "round-barrier wait ÷ training wall, mean of ranks → images_per_s on cluster-tcp"},
	{"transport.reduce_scatter_share", "share", "lower", "reduce-scatter time ÷ training wall → images_per_s on cluster-tcp"},
	{"transport.all_gather_share", "share", "lower", "all-gather time ÷ training wall → images_per_s on cluster-tcp"},
	{"transport.bytes_per_round", "B", "lower", "bytes sent per round per rank → images_per_s on cluster-tcp"},
	{"transport.frames_per_round", "count", "lower", "frames sent per round per rank → images_per_s on cluster-tcp"},
	{"transport.aborts", "count", "lower", "TransportStats.Aborts, both ranks (0 on a healthy run)"},
	{"transport.restart_rounds", "count", "lower", "TransportStats.RestartRounds, both ranks (0 on a healthy run)"},
	{"serve.service_ms_p50", "ms", "lower", "Predictor.Stats ServiceP50Ms → latency_p50_ms on serve-feed"},
	{"serve.service_ms_p99", "ms", "lower", "Predictor.Stats ServiceP99Ms → latency_p50_ms on serve-feed"},
	{"serve.batch_occupancy", "rows", "higher", "requests per computed batch in the low-rate phases → latency_p50_ms on serve-feed"},
	{"serve.useful_row_share", "share", "higher", "low-rate batch occupancy ÷ rows computed (MaxBatch) → latency_p50_ms, cpu_ms_per_image on serve-feed"},
	{"serve.queue_peak", "count", "lower", "Predictor.Stats QueuePeak → images_per_s on serve-feed"},
	{"serve.shed", "count", "lower", "Predictor.Stats Shed → images_per_s on serve-feed"},
	{"serve.model_swaps", "count", "lower", "Predictor.Stats ModelSwaps → time_to_result_s on serve-feed"},
	{"serve.update_model_ms", "ms", "lower", "Predictor.UpdateParams per recorded snapshot → time_to_result_s on serve-feed"},
	{"feed.bytes_per_snapshot", "B", "lower", "publisher payload bytes per snapshot sent → time_to_result_s on serve-feed"},
	{"feed.delta_to_full_ratio", "ratio", "lower", "mean delta bytes ÷ mean full bytes → time_to_result_s on serve-feed"},
	{"feed.resyncs", "count", "lower", "publisher divergence resyncs (0 on a healthy run)"},
	{"ckpt.compute_delta_ms", "ms", "lower", "ckpt.ComputeDelta per recorded snapshot pair → time_to_result_s on serve-feed"},
	{"ckpt.apply_delta_ms", "ms", "lower", "Delta.Apply per recorded snapshot pair → time_to_result_s on serve-feed"},
	{"loadgen.max_rate_rps", "req/s", "higher", "highest ladder rate whose p99 meets the limit with no backlog growth (serve-feed)"},
	{"loadgen.late_ms_max", "ms", "lower", "how late the open-loop generator sent against its schedule (validity of serve-feed)"},
	{"loadgen.p99_ms_low", "ms", "lower", "p99 request latency at the low rate (serve-feed)"},
	{"loadgen.p50_ms_high", "ms", "lower", "p50 request latency at the high rate (serve-feed)"},
	{"loadgen.p99_ms_high", "ms", "lower", "p99 request latency at the high rate (serve-feed)"},
	{"stat.epochs_to_target", "epochs", "lower", "Result.EpochsToTarget (tta-resnet32; exact under Deterministic+Lockstep)"},
	{"stat.loss_at_end", "nats", "lower", "mean training loss of the last epoch"},
	{"trace.images_per_s", "img/s", "higher", "training images/s of the traced run"},
	{"trace.overhead_share", "share", "lower", "1 − traced ÷ untraced images/s, measured in the same run"},
	{"trace.unaccounted_share", "share", "lower", "share of the traced run's wall time its top-level spans plus learner idle leave unaccounted"},
}
