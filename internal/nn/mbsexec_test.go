package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// minGroupBudget finds the smallest power-of-two-scaled budget the planner
// accepts for the model — the plan with the most groups the model admits.
func minGroupBudget(t *testing.T, m *Model, shape []int, sub int) int64 {
	t.Helper()
	budget := int64(32 << 10)
	for budget < 1<<40 {
		if _, err := m.PlanMBS(shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: budget}); err == nil {
			return budget
		}
		budget *= 2
	}
	t.Fatal("no budget admits a plan")
	return 0
}

// grabGrads snapshots all parameter gradients.
func grabGrads(m *Model) map[string]*tensor.Tensor {
	out := map[string]*tensor.Tensor{}
	for _, p := range m.Params() {
		out[p.Name] = p.Grad.Clone()
	}
	return out
}

// expectBitIdentical compares a model's current grads against a snapshot
// with exact float equality.
func expectBitIdentical(t *testing.T, m *Model, ref map[string]*tensor.Tensor, ctx string) {
	t.Helper()
	for _, p := range m.Params() {
		want := ref[p.Name]
		for i := range p.Grad.Data {
			if p.Grad.Data[i] != want.Data[i] {
				t.Fatalf("%s: %s gradient not bit-identical at %d (%g vs %g)",
					ctx, p.Name, i, p.Grad.Data[i], want.Data[i])
			}
		}
	}
}

// TestGroupedMBSBitIdenticalToLayerByLayer is the executor's core contract:
// for every group count the budget can force — including ragged sub-batches
// — the grouped executor reproduces the legacy layer-by-layer MBS gradients
// and loss to the last bit on a GroupNorm model.
func TestGroupedMBSBitIdenticalToLayerByLayer(t *testing.T) {
	defer tensor.SetEngine(tensor.SetEngine(tensor.EngineGEMM))
	m, x, labels := buildTestModel(31)
	shape := x.Shape
	const sub = 3 // batch 8 → spans 3,3,2 (ragged)

	lossRef := m.AccumulateGradsMBS(x, labels, sub)
	ref := grabGrads(m)

	minBudget := minGroupBudget(t, m, shape, sub)
	budgets := []int64{minBudget, 4 * minBudget, 1 << 30}
	seen := map[int]bool{}
	for _, budget := range budgets {
		plan, err := m.PlanMBS(shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: budget})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		seen[len(plan.Groups)] = true
		if err := m.SetMBSPlan(plan); err != nil {
			t.Fatalf("budget %d: SetMBSPlan: %v", budget, err)
		}
		for step := 0; step < 2; step++ { // second step exercises warm arenas
			loss := m.AccumulateGradsMBS(x, labels, sub)
			if loss != lossRef {
				t.Fatalf("budget %d (groups=%d) step %d: loss %g != legacy %g",
					budget, len(plan.Groups), step, loss, lossRef)
			}
			expectBitIdentical(t, m, ref, plan.Summary())
		}
		m.ClearMBSPlan()
	}
	if len(seen) < 2 {
		t.Fatalf("budget sweep produced only group counts %v, want at least 2 distinct", seen)
	}
	if !seen[1] {
		t.Fatal("1<<30 budget should yield a single group")
	}
}

// TestGroupedMBSGradientsAcrossThreads pins the three GN gradient paths end
// to end at every thread count: the grouped executor (multi-group, ragged
// sub-batches) equals the layer-by-layer MBS path bit for bit, both equal
// their threads=1 result bit for bit, and both match full-batch gradients
// (which differ only in how the loss gradient is scaled) to 1e-9.
func TestGroupedMBSGradientsAcrossThreads(t *testing.T) {
	defer tensor.SetEngine(tensor.SetEngine(tensor.EngineGEMM))
	defer tensor.SetThreads(tensor.SetThreads(1))
	const sub = 3
	var ref map[string]*tensor.Tensor
	for _, threads := range []int{1, 2, 4} {
		tensor.SetThreads(threads)
		m, x, labels := buildTestModel(41)
		m.AccumulateGradsFull(x, labels)
		full := grabGrads(m)
		m.AccumulateGradsMBS(x, labels, sub)
		layered := grabGrads(m)
		plan, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: minGroupBudget(t, m, x.Shape, sub)})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetMBSPlan(plan); err != nil {
			t.Fatal(err)
		}
		m.AccumulateGradsMBS(x, labels, sub)
		m.ClearMBSPlan()
		expectBitIdentical(t, m, layered, fmt.Sprintf("threads=%d grouped vs layer-by-layer", threads))
		if ref == nil {
			ref = layered
		}
		expectBitIdentical(t, m, ref, fmt.Sprintf("threads=%d vs threads=1", threads))
		for _, p := range m.Params() {
			if d := p.Grad.MaxAbsDiff(full[p.Name]); d > 1e-9 {
				t.Fatalf("threads=%d: %s MBS gradient differs from full batch by %g", threads, p.Name, d)
			}
		}
	}
}

// TestGroupedMBSPipelineBitIdentical: double-buffered im2col prepacking must
// not change a single bit, for single- and multi-group plans, across thread
// counts.
func TestGroupedMBSPipelineBitIdentical(t *testing.T) {
	defer tensor.SetEngine(tensor.SetEngine(tensor.EngineGEMM))
	defer tensor.SetThreads(tensor.SetThreads(1))
	for _, threads := range []int{1, 3} {
		tensor.SetThreads(threads)
		m, x, labels := buildTestModel(32)
		const sub = 3
		lossRef := m.AccumulateGradsMBS(x, labels, sub)
		ref := grabGrads(m)
		for _, budget := range []int64{minGroupBudget(t, m, x.Shape, sub), 1 << 30} {
			plan, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: budget, Pipeline: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SetMBSPlan(plan); err != nil {
				t.Fatal(err)
			}
			if loss := m.AccumulateGradsMBS(x, labels, sub); loss != lossRef {
				t.Fatalf("threads=%d groups=%d: pipelined loss %g != %g", threads, len(plan.Groups), loss, lossRef)
			}
			expectBitIdentical(t, m, ref, "pipelined "+plan.Summary())
			m.ClearMBSPlan()
		}
	}
}

// TestGroupedMBSResidualEquivalence extends the repo's central equivalence
// tests to residual models: under GroupNorm the grouped executor matches the
// legacy MBS path bit-for-bit and the full-batch gradients to 1e-9, for every
// budget.
func TestGroupedMBSResidualEquivalence(t *testing.T) {
	defer tensor.SetEngine(tensor.SetEngine(tensor.EngineGEMM))
	rng := rand.New(rand.NewSource(33))
	m := BuildSmallResNet(rng, 3, 16, 8, NormGroup, 8)
	x := tensor.New(8, 3, 16, 16)
	x.Randn(rng, 1)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = rng.Intn(8)
	}
	const sub = 3

	lossFull := m.AccumulateGradsFull(x, labels)
	refFull := grabGrads(m)
	lossMBS := m.AccumulateGradsMBS(x, labels, sub)
	refMBS := grabGrads(m)
	if math.Abs(lossMBS-lossFull) > 1e-9 {
		t.Fatalf("legacy MBS loss %g vs full %g", lossMBS, lossFull)
	}

	for _, budget := range []int64{minGroupBudget(t, m, x.Shape, sub), 1 << 30} {
		plan, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetMBSPlan(plan); err != nil {
			t.Fatal(err)
		}
		loss := m.AccumulateGradsMBS(x, labels, sub)
		if loss != lossMBS {
			t.Fatalf("groups=%d: grouped loss %g != legacy MBS %g", len(plan.Groups), loss, lossMBS)
		}
		expectBitIdentical(t, m, refMBS, plan.Summary())
		for _, p := range m.Params() {
			if d := p.Grad.MaxAbsDiff(refFull[p.Name]); d > 1e-9 {
				t.Errorf("groups=%d: %s differs from full-batch by %g", len(plan.Groups), p.Name, d)
			}
		}
		if math.Abs(loss-lossFull) > 1e-9 {
			t.Errorf("groups=%d: grouped loss %g vs full %g", len(plan.Groups), loss, lossFull)
		}
		m.ClearMBSPlan()
	}
}

// TestGroupedMBSBatchNormStillDiverges is the negative control on the
// grouped executor: BN statistics span the mini-batch, so the grouped
// sub-batch flow must NOT reproduce full-batch gradients.
func TestGroupedMBSBatchNormStillDiverges(t *testing.T) {
	defer tensor.SetEngine(tensor.SetEngine(tensor.EngineGEMM))
	rng := rand.New(rand.NewSource(34))
	m := BuildSmallResNet(rng, 3, 16, 8, NormBatch, 0)
	x := tensor.New(8, 3, 16, 16)
	x.Randn(rng, 1)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = rng.Intn(8)
	}
	m.AccumulateGradsFull(x, labels)
	refFull := grabGrads(m)

	plan, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: 3, BudgetBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMBSPlan(plan); err != nil {
		t.Fatal(err)
	}
	defer m.ClearMBSPlan()
	m.AccumulateGradsMBS(x, labels, 3)
	var maxDiff float64
	for _, p := range m.Params() {
		if d := p.Grad.MaxAbsDiff(refFull[p.Name]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff < 1e-6 {
		t.Errorf("grouped BN sub-batching unexpectedly matched full batch (max diff %g)", maxDiff)
	}
}

// TestGroupedMBSBatchNormRunningStats: the backward-phase recompute must be
// stat-neutral. After one grouped train step on a multi-group plan, every
// BatchNorm layer's running mean and variance (residual branches included)
// equal the layer-by-layer MBS path's bit for bit, and so do the updated
// parameters.
func TestGroupedMBSBatchNormRunningStats(t *testing.T) {
	defer tensor.SetEngine(tensor.SetEngine(tensor.EngineGEMM))
	builds := map[string]func(*rand.Rand) *Model{
		"cnn":    func(r *rand.Rand) *Model { return BuildSmallCNN(r, 3, 16, 8, NormBatch, 0) },
		"resnet": func(r *rand.Rand) *Model { return BuildSmallResNet(r, 3, 16, 8, NormBatch, 0) },
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			grouped, layered := build(rand.New(rand.NewSource(39))), build(rand.New(rand.NewSource(39)))
			rng := rand.New(rand.NewSource(40))
			x := tensor.New(8, 3, 16, 16)
			x.Randn(rng, 1)
			labels := make([]int, 8)
			for i := range labels {
				labels[i] = rng.Intn(8)
			}
			const sub = 3
			plan, err := grouped.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: minGroupBudget(t, grouped, x.Shape, sub)})
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Groups) < 2 {
				t.Fatalf("plan has %d group(s); the recompute needs at least 2", len(plan.Groups))
			}
			if err := grouped.SetMBSPlan(plan); err != nil {
				t.Fatal(err)
			}
			defer grouped.ClearMBSPlan()
			grouped.TrainStepMBS(x, labels, sub, &SGD{LR: 0.05, Momentum: 0.9})
			layered.TrainStepMBS(x, labels, sub, &SGD{LR: 0.05, Momentum: 0.9})

			var gb, lb []*BatchNorm2D
			for i := range grouped.Net.Layers {
				gb = appendBatchNorms(gb, grouped.Net.Layers[i])
				lb = appendBatchNorms(lb, layered.Net.Layers[i])
			}
			if len(gb) == 0 {
				t.Fatal("model has no BatchNorm layers")
			}
			for i := range gb {
				for c := range gb[i].RunningMean {
					if gb[i].RunningMean[c] != lb[i].RunningMean[c] || gb[i].RunningVar[c] != lb[i].RunningVar[c] {
						t.Fatalf("%s channel %d: running stats (%g, %g) after a grouped step, layer-by-layer (%g, %g)",
							gb[i].Gamma.Name, c, gb[i].RunningMean[c], gb[i].RunningVar[c], lb[i].RunningMean[c], lb[i].RunningVar[c])
					}
				}
			}
			pg, pl := grouped.Params(), layered.Params()
			for i := range pg {
				for j := range pg[i].Data.Data {
					if pg[i].Data.Data[j] != pl[i].Data.Data[j] {
						t.Fatalf("%s: parameters differ after one grouped step", pg[i].Name)
					}
				}
			}
		})
	}
}

// TestGroupedMBSTrainStepInterleaving: full-batch steps between grouped MBS
// steps resize the layers' persistent buffers, so the executor must
// re-install its arena views — whole optimizer trajectories stay bit-equal
// to the legacy interleaving.
func TestGroupedMBSTrainStepInterleaving(t *testing.T) {
	defer tensor.SetEngine(tensor.SetEngine(tensor.EngineGEMM))
	a, x, labels := buildTestModel(35)
	b, _, _ := buildTestModel(35)
	const sub = 3
	plan, err := a.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetMBSPlan(plan); err != nil {
		t.Fatal(err)
	}
	defer a.ClearMBSPlan()
	optA := &SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
	optB := &SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
	for step := 0; step < 2; step++ {
		la := a.TrainStepMBS(x, labels, sub, optA)
		lb := b.TrainStepMBS(x, labels, sub, optB)
		if la != lb {
			t.Fatalf("step %d: MBS losses diverged (%g vs %g)", step, la, lb)
		}
		if lf, lg := a.TrainStepFull(x, labels, optA), b.TrainStepFull(x, labels, optB); lf != lg {
			t.Fatalf("step %d: full losses diverged (%g vs %g)", step, lf, lg)
		}
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Data.Data {
			if pa[i].Data.Data[j] != pb[i].Data.Data[j] {
				t.Fatalf("%s: parameters diverged after interleaved full/MBS steps", pa[i].Name)
			}
		}
	}
}

// TestGroupedMBSFallback: a call that doesn't match the installed plan (other
// sub-batch, other batch size) must fall back to the layer-by-layer path and
// stay correct.
func TestGroupedMBSFallback(t *testing.T) {
	defer tensor.SetEngine(tensor.SetEngine(tensor.EngineGEMM))
	m, x, labels := buildTestModel(36)
	lossOther := m.AccumulateGradsMBS(x, labels, 4)
	refOther := grabGrads(m)

	plan, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: 3, BudgetBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMBSPlan(plan); err != nil {
		t.Fatal(err)
	}
	defer m.ClearMBSPlan()
	if loss := m.AccumulateGradsMBS(x, labels, 4); loss != lossOther {
		t.Fatalf("fallback sub=4 loss %g != %g", loss, lossOther)
	}
	expectBitIdentical(t, m, refOther, "fallback")
}

// TestGroupedMBSZeroAlloc is the scratch-arena contract across group
// boundaries (and the whole grouped step): after warm-up, a grouped MBS
// train step — ragged sub-batches, multi-group plan, fp32 and fp16, with and
// without the pipeline, at 1, 2 and 4 kernel threads — allocates nothing.
func TestGroupedMBSZeroAlloc(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	defer tensor.SetEngine(tensor.SetEngine(tensor.EngineGEMM))
	defer tensor.SetThreads(tensor.SetThreads(1))

	cases := []struct {
		name     string
		fp16     bool
		pipeline bool
		budget   int64
	}{
		{"fp32-multigroup", false, false, 0},
		{"fp32-singlegroup", false, false, 1 << 30},
		{"fp32-pipeline", false, true, 0},
		{"fp16-multigroup", true, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, threads := range []int{1, 2, 4} {
				tensor.SetThreads(threads)
				t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
					m, x, labels := buildTestModel(37)
					const sub = 3
					budget := tc.budget
					if budget == 0 {
						budget = 4 * minGroupBudget(t, m, x.Shape, sub)
					}
					plan, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: budget, Pipeline: tc.pipeline})
					if err != nil {
						t.Fatal(err)
					}
					if err := m.SetMBSPlan(plan); err != nil {
						t.Fatal(err)
					}
					defer m.ClearMBSPlan()
					if tc.fp16 {
						m.SetFP16Weights(true)
					}
					opt := &SGD{LR: 0.01, Momentum: 0.9}
					m.TrainStepMBS(x, labels, sub, opt) // warm arenas + pooled scratch
					m.TrainStepMBS(x, labels, sub, opt)
					if allocs := testing.AllocsPerRun(5, func() { m.TrainStepMBS(x, labels, sub, opt) }); allocs != 0 {
						t.Errorf("grouped MBS train step (%s, groups=%d, threads=%d) allocates %v/op after warm-up, want 0",
							tc.name, len(plan.Groups), threads, allocs)
					}
				})
			}
		})
	}
}

// TestMBSPlanShapes covers the planner itself: grouping granularity tracks
// the budget, the peak planned arena stays strictly below the unplanned
// footprint, metadata lines carry the plan, and an impossible budget is a
// hard error naming the layer.
func TestMBSPlanShapes(t *testing.T) {
	m, x, _ := buildTestModel(38)
	const sub = 3

	big, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Groups) != 1 {
		t.Fatalf("1GiB budget: %d groups, want 1", len(big.Groups))
	}
	small, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: minGroupBudget(t, m, x.Shape, sub)})
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Groups) <= len(big.Groups) {
		t.Fatalf("minimal budget produced %d groups, want more than %d", len(small.Groups), len(big.Groups))
	}
	for _, p := range []*MBSPlan{big, small} {
		if p.PeakArenaBytes <= 0 || p.PeakArenaBytes >= p.FullFootprintBytes {
			t.Errorf("peak arena %d not strictly below unplanned footprint %d", p.PeakArenaBytes, p.FullFootprintBytes)
		}
		for _, g := range p.Groups {
			if g.WorkingSetBytes > p.BudgetBytes {
				t.Errorf("group %d..%d working set %d over budget %d", g.First, g.Last, g.WorkingSetBytes, p.BudgetBytes)
			}
		}
		var sb strings.Builder
		p.WriteTable(&sb)
		if !strings.Contains(sb.String(), "group 0: layers 0..") {
			t.Errorf("plan table missing group lines:\n%s", sb.String())
		}
		if !strings.Contains(p.MetricsLine(), "mbs-plan: groups=") {
			t.Errorf("metrics line malformed: %s", p.MetricsLine())
		}
	}
	// boundary stash only exists between groups
	if big.BoundaryBytes != 0 {
		t.Errorf("single-group plan reports boundary bytes %d, want 0", big.BoundaryBytes)
	}
	if small.BoundaryBytes <= 0 {
		t.Error("multi-group plan reports no boundary stash")
	}

	if _, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: 1024}); err == nil {
		t.Fatal("1KiB budget should be rejected")
	} else if !strings.Contains(err.Error(), "alone needs") {
		t.Errorf("oversized-layer error should name the layer and sizes: %v", err)
	}

	// autodetected budget: plans must still form
	auto, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: sub})
	if err != nil {
		t.Fatal(err)
	}
	if !auto.BudgetAuto || auto.BudgetBytes <= 0 {
		t.Errorf("auto budget not recorded: %+v", auto)
	}
}

// TestParseByteSize pins the budget-flag syntax.
func TestParseByteSize(t *testing.T) {
	cases := map[string]int64{
		"1048576": 1 << 20,
		"512K":    512 << 10,
		"8MiB":    8 << 20,
		"2GB":     2 << 30,
		"105M":    105 << 20,
		"64B":     64,
		" 2m ":    2 << 20,
	}
	for in, want := range cases {
		got, err := ParseByteSize(in)
		if err != nil || got != want {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "12Q", "MiB"} {
		if _, err := ParseByteSize(bad); err == nil {
			t.Errorf("ParseByteSize(%q) should fail", bad)
		}
	}
	if b, src := DetectCacheBudget(); b <= 0 || src == "" {
		t.Errorf("DetectCacheBudget() = %d, %q", b, src)
	}
}
