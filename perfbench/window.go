package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// sliceLen is the length of the slices a window is cut into. Load from
// other tenants of a shared host only ever slows a slice down, so the
// end-to-end figures are taken over the quieter half of the slices (see
// quietStats): a burst that slows part of a run then moves them little.
const sliceLen = time.Second

// opRecord is one attempted op.
type opRecord struct {
	at    time.Duration // start (closed loop) or due time (open loop), from the window start
	lat   time.Duration
	items int
	ok    bool
}

// window is what one timed loop produced.
type window struct {
	length    time.Duration // the requested window
	openLoop  bool          // arrivals follow a schedule, not completions
	ops       []opRecord
	items     int64
	attempted int64
	failed    int64
	wrong     int64         // failures caught by an output check
	elapsed   time.Duration // open loop: window start to the last completion

	gcCycles   uint32
	gcPauseNS  uint64
	mallocs    uint64
	allocBytes uint64
}

// record adds one op's outcome. A failed op misses every latency limit.
func (w *window) record(at, lat time.Duration, items int, ok, wrong bool) {
	w.attempted++
	w.ops = append(w.ops, opRecord{at: at, lat: lat, items: items, ok: ok})
	if !ok {
		w.failed++
		if wrong {
			w.wrong++
		}
		return
	}
	w.items += int64(items)
}

// fail turns op i into a failure caught by an output check.
func (w *window) fail(i int) {
	if !w.ops[i].ok {
		return
	}
	w.ops[i].ok = false
	w.failed++
	w.wrong++
	w.items -= int64(w.ops[i].items)
}

// latencies returns every op's latency in ms, +Inf for failed ops.
func latencies(ops []opRecord) []float64 {
	ms := make([]float64, len(ops))
	for i, o := range ops {
		ms[i] = math.Inf(1)
		if o.ok {
			ms[i] = float64(o.lat) / 1e6
		}
	}
	return ms
}

// e2e is a window's end-to-end figures.
type e2e struct {
	itemsPerSec, p50, p90 float64
	slices, quiet         int // slices in the window, and in its quieter half
	quietOps              int
	sliceP50              []float64 // every slice's median latency, in order
}

// quietStats cuts the window into whole slices by op start (due time for an
// open loop), ranks them by median latency, and pools the ops of the
// quieter half: p50 and p90 come from that pool. A closed loop's throughput
// is the work done inside those slices, each op's items credited to the
// slices its run overlaps in proportion to the overlap. An open loop's
// throughput is set by its schedule unless the server falls behind, so it
// is taken over the whole window: items answered over the time from the
// window start to the last completion. A window shorter than one slice is
// one slice.
func quietStats(w *window) e2e {
	n := max(int(w.length/sliceLen), 1)
	per := w.length / time.Duration(n)
	slices := make([][]opRecord, n)
	for _, o := range w.ops {
		if i := int(o.at / per); i < n {
			slices[i] = append(slices[i], o)
		}
	}
	out := e2e{slices: n, quiet: (n + 1) / 2, sliceP50: make([]float64, n)}
	rank := make([]int, n)
	for i, sl := range slices {
		rank[i] = i
		out.sliceP50[i] = summarize(latencies(sl)).P50
	}
	sort.SliceStable(rank, func(a, b int) bool { return out.sliceP50[rank[a]] < out.sliceP50[rank[b]] })
	var pool []opRecord
	for _, i := range rank[:out.quiet] {
		pool = append(pool, slices[i]...)
	}
	lat := summarize(latencies(pool))
	out.p50, out.p90, out.quietOps = lat.P50, lat.P90, len(pool)
	if w.openLoop {
		out.itemsPerSec = float64(w.items) / w.elapsed.Seconds()
		return out
	}
	credit := sliceCredit(w.ops, per, n)
	var items float64
	for _, i := range rank[:out.quiet] {
		items += credit[i]
	}
	out.itemsPerSec = items / (per * time.Duration(out.quiet)).Seconds()
	return out
}

// sliceCredit spreads each successful op's items over the n slices of
// length per that its run [at, at+lat) overlaps, in proportion to the
// overlap; work past the last slice is dropped.
func sliceCredit(ops []opRecord, per time.Duration, n int) []float64 {
	credit := make([]float64, n)
	for _, o := range ops {
		if !o.ok {
			continue
		}
		start, end := o.at, o.at+o.lat
		if end <= start {
			if i := int(start / per); i < n {
				credit[i] += float64(o.items)
			}
			continue
		}
		for i := int(start / per); i < n && time.Duration(i)*per < end; i++ {
			lo, hi := max(start, time.Duration(i)*per), min(end, time.Duration(i+1)*per)
			credit[i] += float64(o.items) * float64(hi-lo) / float64(end-start)
		}
	}
	return credit
}

// memWindow brackets a timed loop with runtime memory statistics.
type memWindow struct{ before runtime.MemStats }

func startMem() *memWindow {
	m := &memWindow{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memWindow) finish(w *window) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	w.gcCycles = after.NumGC - m.before.NumGC
	w.gcPauseNS = after.PauseTotalNs - m.before.PauseTotalNs
	w.mallocs = after.Mallocs - m.before.Mallocs
	w.allocBytes = after.TotalAlloc - m.before.TotalAlloc
}
