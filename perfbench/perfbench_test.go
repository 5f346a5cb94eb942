package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.91, 10}, {1, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g, want 2.5", got)
	}
}

// A percentile is reported only when at least ten samples lie beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true}, {99, 0.9, false}, {109, 0.9, true},
		{1000, 0.99, true}, {999, 0.99, false},
		{10000, 0.999, true}, {9999, 0.999, false},
		{20, 0.5, true}, {19, 0.5, false}, {0, 0.5, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for n, want := range map[int]float64{50: 0.5, 100: 0.9, 999: 0.9, 1000: 0.99, 10000: 0.999} {
		if got := highestTail(n); got != want {
			t.Errorf("highestTail(%d) = %g, want %g", n, got, want)
		}
	}
	// A failed op enters as +Inf and so misses every latency limit.
	s := summarize([]float64{1, 2, math.Inf(1)})
	if s.P50 != 2 || !math.IsInf(s.P90, 1) {
		t.Errorf("summary with a failure: p50=%g p90=%g", s.P50, s.P90)
	}
}

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},  // overlaps span 1
		{ID: 3, Parent: 1, Start: 15, End: 20},  // grandchild of 0
		{ID: 4, Parent: 0, Start: 90, End: 120}, // runs past its parent
	}
	want := []int64{
		100 - (50 + 10), // children cover 10..60 and 90..100
		30 - 5,
		30,
		5,
		30,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for i := range spans {
		spans[i].Name = "layer"
	}
	spans[0].Name = "op"
	agg := aggregate(spans)
	if st := agg["layer"]; st.Count != 4 || st.SelfTotalMS != float64(25+30+5+30)/1e6 {
		t.Fatalf("aggregate[layer] = %+v", st)
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	root := tr.start("op", 7, -1)
	child := tr.start("layer", 7, root)
	tr.end(child)
	tr.end(root)
	tr.start("unfinished", 8, -1)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	var none *tracer
	if id := none.start("x", 1, -1); id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	none.end(-1)
}

// Client goroutines and server handlers record spans at once.
func TestTracerConcurrentSpans(t *testing.T) {
	tr := newTracer()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(op int64) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				root := tr.start("op", op, -1)
				tr.end(tr.start("layer", op, root))
				tr.end(root)
			}
		}(int64(g))
	}
	wg.Wait()
	spans := tr.snapshot()
	if len(spans) != 4*500*2 {
		t.Fatalf("%d spans, want %d", len(spans), 4*500*2)
	}
	for _, s := range spans {
		if s.Name == "layer" && spans[s.Parent].Op != s.Op {
			t.Fatalf("span %d: parent %d belongs to op %d, not %d", s.ID, s.Parent, spans[s.Parent].Op, s.Op)
		}
	}
}

func TestSameSeedSameOpStream(t *testing.T) {
	if a, b := trainStream(5, 16, 100), trainStream(5, 16, 100); !reflect.DeepEqual(a, b) {
		t.Error("train stream differs for one seed")
	}
	if a, b := trainStream(5, 16, 100), trainStream(6, 16, 100); reflect.DeepEqual(a, b) {
		t.Error("train stream ignores the seed")
	}
	if a, b := inferStream(5, 180, 2*time.Second, 64), inferStream(5, 180, 2*time.Second, 64); !reflect.DeepEqual(a, b) {
		t.Error("infer stream differs for one seed")
	}
	if a, b := inferStream(5, 180, 2*time.Second, 64), inferStream(6, 180, 2*time.Second, 64); reflect.DeepEqual(a, b) {
		t.Error("infer stream ignores the seed")
	}
	if a, b := sweepStream(5, 200), sweepStream(5, 200); !reflect.DeepEqual(a, b) {
		t.Error("sweep stream differs for one seed")
	}
	if a, b := sweepStream(5, 200), sweepStream(6, 200); reflect.DeepEqual(a, b) {
		t.Error("sweep stream ignores the seed")
	}
}

func TestSweepOpsSpanThreeToThirtySixCells(t *testing.T) {
	lo, hi, jobs := 1<<30, 0, 0
	ops := sweepStream(1, 400)
	for _, op := range ops {
		cells, err := experiments.SweepCells(op.Params)
		if err != nil {
			t.Fatalf("%v: %v", op.Params, err)
		}
		lo, hi = min(lo, len(cells)), max(hi, len(cells))
		if op.ViaJobs {
			jobs++
		}
	}
	if lo != 3 || hi != 36 {
		t.Errorf("cells per op in [%d, %d], want [3, 36]", lo, hi)
	}
	if jobs < 150 || jobs > 250 {
		t.Errorf("%d of %d ops go through /v2/jobs, want about half", jobs, len(ops))
	}
}

func TestPoissonScheduleMeanRate(t *testing.T) {
	const rate = 200.0
	horizon := 200 * time.Second
	due := poissonSchedule(rand.New(rand.NewSource(3)), rate, horizon)
	got := float64(len(due)) / horizon.Seconds()
	if math.Abs(got-rate)/rate > 0.02 {
		t.Errorf("mean rate %.1f/s, want %.0f/s within 2%%", got, rate)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] || due[i] >= horizon {
			t.Fatalf("arrival %d at %v out of order or past the horizon", i, due[i])
		}
	}
}

// The quieter half of the slices sets the figures, so a slowed stretch of
// the window moves them little.
func TestQuietStatsIgnoreSlowSlices(t *testing.T) {
	w := &window{length: 10 * sliceLen}
	for s := 0; s < 10; s++ {
		lat := time.Millisecond
		if s%3 == 0 { // 4 of 10 slices run 5x slower
			lat = 5 * time.Millisecond
		}
		for k := 0; k < 100; k++ {
			at := time.Duration(s)*sliceLen + time.Duration(k)*sliceLen/100
			w.record(at, lat, 2, true, false)
		}
	}
	e := quietStats(w)
	if e.slices != 10 || e.quiet != 5 || e.quietOps != 500 {
		t.Fatalf("slices=%d quiet=%d ops=%d", e.slices, e.quiet, e.quietOps)
	}
	if e.p50 != 1 || e.p90 != 1 {
		t.Errorf("p50=%g p90=%g, want 1 and 1", e.p50, e.p90)
	}
	if all := summarize(latencies(w.ops)); all.P90 != 5 {
		t.Errorf("pooled p90 over every slice = %g, want 5", all.P90)
	}
	if want := 200 / sliceLen.Seconds(); e.itemsPerSec != want {
		t.Errorf("items/s = %g, want %g", e.itemsPerSec, want)
	}
}

// An op's items count toward the slices its run overlaps, in proportion.
func TestSliceCreditSplitsStraddlingOps(t *testing.T) {
	ops := []opRecord{
		{at: sliceLen / 2, lat: sliceLen, items: 10, ok: true},     // half in each slice
		{at: sliceLen / 4, lat: 0, items: 3, ok: true},             // instantaneous
		{at: sliceLen / 4, lat: sliceLen / 4, items: 7, ok: false}, // failed: no credit
		{at: 3 * sliceLen / 2, lat: sliceLen, items: 8, ok: true},  // half past the end
	}
	got := sliceCredit(ops, sliceLen, 2)
	if want := []float64{5 + 3, 5 + 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("credit = %v, want %v", got, want)
	}
}

// BENCHMARK.json lists exactly the metrics the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	var e2e []struct{ Name, Unit string }
	for _, n := range endToEndNames {
		e2e = append(e2e, struct{ Name, Unit string }{n.name, n.unit})
	}
	if !reflect.DeepEqual(b.EndToEnd, e2e) {
		t.Errorf("end_to_end = %v, program prints %v", b.EndToEnd, e2e)
	}
	var layers []struct{ Name, Unit string }
	for _, n := range perLayerNames {
		layers = append(layers, struct{ Name, Unit string }{n.name, n.unit})
	}
	if !reflect.DeepEqual(b.PerLayer, layers) {
		t.Errorf("per_layer = %v, program prints %v", b.PerLayer, layers)
	}
}
