package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"crossbow"
	"crossbow/internal/metrics"
)

// overheadEpochs is the length of the untraced crossbow.Train run a traced
// training run is compared with.
const overheadEpochs = 3

// traceDir holds the Chrome trace-event files of traced runs.
var traceDir = filepath.Join(".bench_build", "traces")

func tracedTTA(r *run) error { return tracedTraining(r, ttaConfig(r.subSeed(0)), checkTTA) }

func tracedSmallBatch(r *run) error {
	return tracedTraining(r, smallBatchConfig(r.subSeed(0)), checkSmallBatch)
}

// tracedTraining is the traced run of a single-server training workload. An
// untraced crossbow.Train of overheadEpochs gives the untraced images/s; the
// composed trainer then runs the workload's configuration with spans and a
// CPU profile.
func tracedTraining(r *run, cfg crossbow.Config, check func(*run, crossbow.Config, *crossbow.Result)) error {
	base := cfg
	base.TargetAccuracy, base.MaxEpochs = 0, overheadEpochs
	untraced, err := crossbow.Train(base)
	if err != nil {
		return fmt.Errorf("untraced train: %w", err)
	}

	k := learners(cfg)
	lanes := []string{"main"}
	for j := 0; j < k; j++ {
		lanes = append(lanes, fmt.Sprintf("learner %d", j))
	}
	tr := newTracer(append(lanes, "sma apply")...)
	prof, err := startProfile()
	if err != nil {
		return err
	}
	t0, cpu0 := time.Now(), cpuSeconds()
	c, err := composeTrain(cfg, tr)
	wall, cpu := time.Since(t0), cpuSeconds()-cpu0
	shares, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	r.attempted += int64(c.tasks)
	check(r, cfg, c.result())
	recordComposed(r, c, tr)
	r.setShares(shares)
	r.set("cpu_busy_share", cpu/(wall.Seconds()*float64(runtime.NumCPU())))
	r.setOverhead(steadyIPS(untraced.Wall))
	return r.writeTrace(tr)
}

// steadyIPS returns the images/s of the steady epochs.
func steadyIPS(wall []metrics.WallPoint) []float64 {
	var ips []float64
	for _, w := range steadyEpochs(wall) {
		ips = append(ips, w.ImagesPerSec)
	}
	return ips
}

// setOverhead records the tracing overhead against the untraced run's
// steady-epoch images/s.
func (r *run) setOverhead(untraced []float64) {
	base := metrics.Median(untraced)
	r.note("untraced %.1f img/s, traced %.1f img/s", base, r.values["trace.images_per_s"])
	r.set("trace.overhead_share", 1-r.values["trace.images_per_s"]/base)
}

func (r *run) writeTrace(tr *tracer) error {
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	r.note("spans written to %s", path)
	return nil
}

// tracedCluster runs cluster-tcp untraced, then again under a CPU profile,
// and reports the transport layer from each rank's TransportStats.
func tracedCluster(r *run) error {
	seed := r.subSeed(0)
	untraced, err := trainCluster(seed)
	if err != nil {
		return fmt.Errorf("untraced cluster run: %w", err)
	}
	prof, err := startProfile()
	if err != nil {
		return err
	}
	c, err := trainCluster(seed)
	shares, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	checkCluster(r, seed, c)
	r.setShares(shares)
	r.set("cpu_busy_share", c.cpu/(c.wall.Seconds()*float64(runtime.NumCPU())))

	var roundMs, collMs, barrier, rs, ag, bytes, frames float64
	var aborts, restarts int64
	var ips, base []float64
	for i, res := range c.res {
		ts := res.TransportStats
		r.attempted += int64(len(res.Wall) * (trainSamples / clusterBatch))
		wall := 0.0
		for _, w := range res.Wall {
			wall += w.Sec
		}
		ips = append(ips, steadyIPS(res.Wall)...)
		base = append(base, steadyIPS(untraced.res[i].Wall)...)
		roundMs += float64(ts.RoundMean) / 1e6 / clusterRanks
		collMs += float64(ts.CollectiveMean) / 1e6 / clusterRanks
		barrier += float64(ts.BarrierWaitNs) / 1e9 / wall / clusterRanks
		rs += float64(ts.ReduceScatterNs) / 1e9 / wall / clusterRanks
		ag += float64(ts.AllGatherNs) / 1e9 / wall / clusterRanks
		bytes += float64(ts.BytesSent) / float64(max(1, ts.Rounds)) / clusterRanks
		frames += float64(ts.FramesSent) / float64(max(1, ts.Rounds)) / clusterRanks
		aborts += ts.Aborts
		restarts += ts.RestartRounds
	}
	r.set("transport.round_ms_mean", roundMs)
	r.set("transport.collective_ms_mean", collMs)
	r.set("transport.barrier_share", barrier)
	r.set("transport.reduce_scatter_share", rs)
	r.set("transport.all_gather_share", ag)
	r.set("transport.bytes_per_round", bytes)
	r.set("transport.frames_per_round", frames)
	r.set("transport.aborts", float64(aborts))
	r.set("transport.restart_rounds", float64(restarts))
	r.set("trace.images_per_s", metrics.Median(ips))
	r.set("stat.loss_at_end", lastLoss(c.res[0]))
	r.setOverhead(base)
	return nil
}
