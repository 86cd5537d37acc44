package main

import (
	"math"
	"testing"

	"crossbow"
)

// TestComposedMatchesTrain pins the composed trainer to crossbow.Train: under
// Lockstep and Deterministic kernels the composed pieces, traced or not,
// must train the bit-identical model and epoch series.
func TestComposedMatchesTrain(t *testing.T) {
	cfg := ttaConfig(7)
	cfg.TargetAccuracy, cfg.MaxEpochs = 0, 2
	cfg.TrainSamples, cfg.TestSamples = 256, 128
	want, err := crossbow.Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*tracer{nil, newTracer("main", "learner 0", "learner 1", "sma apply")} {
		got, err := composeTrain(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.params) != len(want.Params) {
			t.Fatalf("%d params, Train has %d", len(got.params), len(want.Params))
		}
		for i := range got.params {
			if math.Float32bits(got.params[i]) != math.Float32bits(want.Params[i]) {
				t.Fatalf("traced=%v: param %d is %v, Train trained %v", tr != nil, i, got.params[i], want.Params[i])
			}
		}
		for i, p := range got.series {
			w := want.Series[i]
			if p.TestAcc != w.TestAcc || p.Loss != w.Loss {
				t.Fatalf("epoch %d: accuracy %v loss %v, Train %v %v", i+1, p.TestAcc, p.Loss, w.TestAcc, w.Loss)
			}
		}
		if tr != nil {
			if _, n := tr.total("nn.residual.fwd"); n == 0 {
				t.Fatal("traced run recorded no layer spans")
			}
			if d, n := tr.total("core.sma_step"); n != got.tasks/2 || d <= 0 {
				t.Fatalf("%d SMA step spans for %d tasks of 2 learners", n, got.tasks)
			}
		}
	}
}
