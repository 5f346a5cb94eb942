package main

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/memsys"
)

// Op streams. Every workload's inputs are a pure function of the seed; the
// program under test only ever sees the generated inputs.

// trainStream is the order in which the train loop visits the dataset's
// batches: a fresh seeded permutation per epoch.
func trainStream(seed int64, batches, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, n)
	for len(out) < n {
		for _, b := range rng.Perm(batches) {
			if len(out) == n {
				break
			}
			out = append(out, b)
		}
	}
	return out
}

// inferOp is one POST /v2/infer: indices into the seeded input pool, due at
// Due after the window opens.
type inferOp struct {
	Due    time.Duration
	Inputs []int
}

// poissonSchedule returns arrival offsets in [0, horizon) with exponential
// inter-arrival gaps at rate arrivals per second.
func poissonSchedule(rng *rand.Rand, rate float64, horizon time.Duration) []time.Duration {
	var out []time.Duration
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= horizon {
			return out
		}
		out = append(out, d)
	}
}

// inferStream is the open-loop request schedule: Poisson arrivals, each
// request carrying 1-4 samples drawn from a pool of poolSize inputs.
func inferStream(seed int64, rate float64, horizon time.Duration, poolSize int) []inferOp {
	rng := rand.New(rand.NewSource(seed))
	due := poissonSchedule(rng, rate, horizon)
	ops := make([]inferOp, len(due))
	for i, d := range due {
		in := make([]int, 1+rng.Intn(4))
		for j := range in {
			in[j] = rng.Intn(poolSize)
		}
		ops[i] = inferOp{Due: d, Inputs: in}
	}
	return ops
}

// sweepOp is one sweep request: a fixed cell plus one or two swept axes,
// sent either as a synchronous /v1/run or as a /v2/jobs job.
type sweepOp struct {
	Params  map[string]string
	ViaJobs bool
}

var (
	sweepAxes    = []string{"network", "config", "memory", "batch", "buffer"}
	sweepBatches = []string{"0", "16", "32", "64"}
	sweepBuffers = []string{"0", "5", "10", "20", "30", "40"}
)

// sweepGen generates the seeded sweep request stream one op at a time; a
// closed loop draws as many as its window has room for.
type sweepGen struct {
	rng               *rand.Rand
	configs, memories []string
}

func newSweepGen(seed int64) *sweepGen {
	g := &sweepGen{rng: rand.New(rand.NewSource(seed))}
	for _, c := range core.Configs {
		g.configs = append(g.configs, c.String())
	}
	for _, m := range memsys.Memories {
		g.memories = append(g.memories, m.Name)
	}
	return g
}

func (g *sweepGen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

func (g *sweepGen) next() sweepOp {
	p := map[string]string{
		"network": g.pick(experiments.DeepCNNs),
		"config":  g.pick(g.configs),
		"memory":  g.pick(g.memories),
		"batch":   g.pick(sweepBatches),
		"buffer":  g.pick(sweepBuffers),
	}
	perm := g.rng.Perm(len(sweepAxes))
	axes := sweepAxes[perm[0]]
	if g.rng.Intn(2) == 1 {
		axes += "," + sweepAxes[perm[1]]
	}
	p["axes"] = axes
	return sweepOp{Params: p, ViaJobs: g.rng.Intn(2) == 1}
}

// sweepStream returns the first n ops of the seeded stream.
func sweepStream(seed int64, n int) []sweepOp {
	g := newSweepGen(seed)
	ops := make([]sweepOp, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// paramsKey is a canonical string for a sweep op's params.
func paramsKey(p map[string]string) string {
	var s string
	for _, k := range append([]string{"axes"}, sweepAxes...) {
		s += k + "=" + p[k] + ";"
	}
	return s
}

// hostRef times a fixed serial loop (median of reps) in milliseconds. It
// touches no program code, so a change in it between runs is host drift,
// not a regression.
func hostRef(reps int) float64 {
	ms := make([]float64, reps)
	for r := range ms {
		t0 := time.Now()
		refSink += refLoop(1 << 19)
		ms[r] = float64(time.Since(t0)) / 1e6
	}
	return median(ms)
}

var refSink uint64

// refLoop is a dependent integer recurrence the compiler cannot fold.
func refLoop(n int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}
