package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// The train workload: the Fig. 6 GN small CNN trained with grouped MBS, as
// `mbstrain -mbs-exec` runs it, under a fixed cache budget so every host
// executes the same 5-group schedule.
const (
	trainBatch   = 32
	trainSub     = 8
	trainBudget  = 2 << 20
	trainSamples = 512
	// trainReplays is how many layer-by-layer replay steps and
	// conventional reference steps the traced run times.
	trainReplays = 24
)

type trainInst struct {
	seed   int64
	model  *nn.Model
	opt    *nn.SGD
	xs     []*tensor.Tensor
	labels [][]int
	order  []int

	// replay results (traced run)
	fwdByLayer, bwdByLayer []float64 // ms summed over the replays, by layer index
}

func buildTrainModel(seed int64) *nn.Model {
	return nn.BuildSmallCNN(rand.New(rand.NewSource(seed)), 3, 16, 8, nn.NormGroup, 8)
}

func setupTrain(seed int64) (instance, error) {
	data := synth.Generate(synth.Config{
		Samples: trainSamples, Classes: 8, Size: 16, Channels: 3, Noise: 0.3, Seed: seed,
	})
	t := &trainInst{seed: seed, model: buildTrainModel(seed),
		opt: &nn.SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}}
	for from := 0; from+trainBatch <= trainSamples; from += trainBatch {
		x, l := data.Batch(from, from+trainBatch)
		t.xs = append(t.xs, x)
		t.labels = append(t.labels, l)
	}
	plan, err := t.model.PlanMBS(t.xs[0].Shape, nn.MBSPlanConfig{SubBatch: trainSub, BudgetBytes: trainBudget})
	if err != nil {
		return nil, err
	}
	if err := t.model.SetMBSPlan(plan); err != nil {
		return nil, err
	}
	t.order = trainStream(seed, len(t.xs), 1<<14)
	// Warm-up: one step fills the arenas and the boundary stash.
	t.model.TrainStepMBS(t.xs[0], t.labels[0], trainSub, t.opt)
	return t, nil
}

// check runs the paper's Section 3 exactness claim on one batch: the
// grouped executor's GN gradients equal full-batch gradients.
func (t *trainInst) check() error {
	mbs, full := buildTrainModel(t.seed), buildTrainModel(t.seed)
	plan, err := mbs.PlanMBS(t.xs[0].Shape, nn.MBSPlanConfig{SubBatch: trainSub, BudgetBytes: trainBudget})
	if err != nil {
		return err
	}
	if err := mbs.SetMBSPlan(plan); err != nil {
		return err
	}
	defer mbs.ClearMBSPlan()
	mbs.AccumulateGradsMBS(t.xs[0], t.labels[0], trainSub)
	full.AccumulateGradsFull(t.xs[0], t.labels[0])
	ref := map[string]*tensor.Tensor{}
	for _, p := range full.Params() {
		ref[p.Name] = p.Grad
	}
	var maxDiff float64
	for _, p := range mbs.Params() {
		maxDiff = math.Max(maxDiff, p.Grad.MaxAbsDiff(ref[p.Name]))
	}
	if !(maxDiff <= 1e-9) {
		return fmt.Errorf("grouped MBS vs full-batch GN gradients differ by %.3g (limit 1e-9)", maxDiff)
	}
	return nil
}

func (t *trainInst) run(_ context.Context, d time.Duration, tr *tracer) (*window, error) {
	w := &window{length: d}
	mem := startMem()
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		b := t.order[i%len(t.order)]
		x, l := t.xs[b], t.labels[b]
		t0 := time.Now()
		at := t0.Sub(start)
		var loss float64
		if tr == nil {
			loss = t.model.TrainStepMBS(x, l, trainSub, t.opt)
		} else {
			// TrainStepMBS is exactly these two calls (no fp16 weights).
			op := int64(i)
			root := tr.start("train.step", op, -1)
			g := tr.start("nn.grads", op, root)
			loss = t.model.AccumulateGradsMBS(x, l, trainSub)
			tr.end(g)
			s := tr.start("nn.sgd", op, root)
			t.opt.Step(t.model.Params())
			tr.end(s)
			tr.end(root)
		}
		ok := !math.IsNaN(loss) && !math.IsInf(loss, 0)
		w.record(at, time.Since(t0), trainBatch, ok, !ok)
	}
	mem.finish(w)
	return w, nil
}

// layerKind buckets a layer for the nn.fwd_ms/nn.bwd_ms metrics.
func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D:
		return "conv"
	case *nn.GroupNorm, *nn.BatchNorm2D:
		return "norm"
	}
	return "other"
}

// replay times each layer's Forward and Backward at sub-batch 8 on a
// plain copy of the model (the layer-by-layer MBS path), and conventional
// full-batch steps on another copy, over the same batches.
func (t *trainInst) replay(_ context.Context, tr *tracer) error {
	plain, full := buildTrainModel(t.seed), buildTrainModel(t.seed)
	fullOpt := *t.opt
	layers := plain.Net.Layers
	t.fwdByLayer = make([]float64, len(layers))
	t.bwdByLayer = make([]float64, len(layers))
	outs := make([]*tensor.Tensor, len(layers))
	for r := 0; r < trainReplays; r++ {
		b := t.order[r]
		x, labels := t.xs[b], t.labels[b]
		op := int64(r)
		root := tr.start("nn.replay", op, -1)
		nn.ZeroGrads(plain.Net)
		for from := 0; from < trainBatch; from += trainSub {
			in := tensor.SliceBatch(x, from, from+trainSub)
			for i, l := range layers {
				id := tr.start("nn.fwd."+layerKind(l), op, root)
				t0 := time.Now()
				outs[i] = l.Forward(in, true)
				t.fwdByLayer[i] += float64(time.Since(t0)) / 1e6
				tr.end(id)
				in = outs[i]
			}
			_, dy := nn.SoftmaxCrossEntropy(in, labels[from:from+trainSub])
			dy.Scale(float64(trainSub) / trainBatch)
			for i := len(layers) - 1; i >= 0; i-- {
				id := tr.start("nn.bwd."+layerKind(layers[i]), op, root)
				t0 := time.Now()
				dy = layers[i].Backward(dy)
				t.bwdByLayer[i] += float64(time.Since(t0)) / 1e6
				tr.end(id)
			}
		}
		tr.end(root)

		id := tr.start("nn.full_step", op, -1)
		loss := full.TrainStepFull(x, labels, &fullOpt)
		tr.end(id)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			return fmt.Errorf("train: conventional reference step: loss %v", loss)
		}
	}
	return nil
}

func (t *trainInst) layers(untraced, _ *window, agg map[string]spanStat, m metrics) {
	grads := agg["nn.grads"].meanMS()
	m.set("nn.grads_ms", "ms", grads)
	m.set("nn.sgd_ms", "ms", agg["nn.sgd"].meanMS())
	m.set("nn.full_step_ms", "ms", agg["nn.full_step"].meanMS())
	const per = trainReplays
	kinds := map[string][2]float64{}
	for i, l := range t.model.Net.Layers {
		k := kinds[layerKind(l)]
		k[0] += t.fwdByLayer[i] / per
		k[1] += t.bwdByLayer[i] / per
		kinds[layerKind(l)] = k
	}
	for _, k := range []string{"conv", "norm", "other"} {
		m.set("nn.fwd_ms."+k, "ms", kinds[k][0])
		m.set("nn.bwd_ms."+k, "ms", kinds[k][1])
	}
	// The executor re-runs the forward of every non-final group in the
	// backward phase; that recompute costs those layers' forward time.
	var recompute float64
	plan := t.model.MBSPlan()
	for _, g := range plan.Groups[:len(plan.Groups)-1] {
		for i := g.First; i <= g.Last; i++ {
			recompute += t.fwdByLayer[i] / per
		}
	}
	if grads > 0 {
		m.set("nn.recompute_share", "ratio", recompute/grads)
	}
	ops := float64(max(untraced.attempted, 1))
	m.set("nn.allocs_per_op", "count", float64(untraced.mallocs)/ops)
	m.set("nn.alloc_kb_per_op", "KiB", float64(untraced.allocBytes)/1024/ops)
}

// verify is a no-op: every output is checked inside the loop.
func (t *trainInst) verify(context.Context, *window) error { return nil }

func (t *trainInst) close() { t.model.ClearMBSPlan() }
