// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process and prints, as the last line of standard output, one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload train --seed 1 --seconds 30 --trace 0
//	go run . --workload all --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	train  closed loop, one trainer: grouped-MBS TrainStepMBS steps
//	infer  open loop, Poisson arrivals: POST /v2/infer on an in-process server
//	sweep  closed loop, nproc clients: /v1/run and /v2/jobs sweep requests
//
// With --trace 0 the metrics are the end-to-end ones (setup_s, peak_rss_mb,
// items_per_s, p50_ms, p90_ms). With --trace 1 the window is split in two
// halves on fresh set-ups, the first untraced and the second traced, and
// the metrics are the per-layer ones plus the tracing overhead between the
// halves. Spans are written under .bench_build/spans/ in the working
// directory (perfbench/ when started by run.sh) when the run ends.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// setupRuns is how many fresh set-ups each run times; setup_s is their
// median. One set-up takes milliseconds, so a single one is mostly noise.
const setupRuns = 21

// setupGap separates the timed set-ups.
const setupGap = 50 * time.Millisecond

// spanDir is where traced runs write their spans, relative to the working
// directory.
const spanDir = ".bench_build/spans"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// instance is one set-up workload.
type instance interface {
	// run drives the timed loop for d. With a non-nil tracer every op
	// records spans around its calls into the layers.
	run(ctx context.Context, d time.Duration, tr *tracer) (*window, error)
	// verify runs the output checks that are too costly to make inside
	// the timed loop, turning ops with wrong outputs into failures.
	verify(ctx context.Context, w *window) error
	// replay makes the traced run's extra per-layer measurements, recording
	// spans into tr.
	replay(ctx context.Context, tr *tracer) error
	// layers sets the workload's per-layer metrics. untraced and traced are
	// the two halves of a traced run; agg aggregates its spans.
	layers(untraced, traced *window, agg map[string]spanStat, m metrics)
	// check reports output checks made at set-up (nil = passed).
	check() error
	close()
}

type workload struct {
	setup func(seed int64) (instance, error)
	why   string
}

var workloads = map[string]workload{
	"train": {setupTrain, "closed loop, 1 trainer: TrainStepMBS on the grouped executor, GN small CNN, batch 32, sub-batch 8, 2 MiB budget"},
	"infer": {setupInfer, fmt.Sprintf("open loop, Poisson %.0f req/s, 1-4 samples each, %d connections: POST /v2/infer", inferRate, clients())},
	"sweep": {setupSweep, fmt.Sprintf("closed loop, %d clients: sweep requests of 3-36 cells, half /v1/run, half /v2/jobs", clients())},
}

// clients is the load generator's concurrency: one per CPU.
func clients() int { return runtime.NumCPU() }

// metrics collects reported values by name.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: train, infer, sweep or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 30, "length of the measured window in seconds")
	traced := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have train, infer, sweep, all)\n", *name)
		return 2
	}
	res, err := runWorkload(stdout, *name, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// trainPlan plans the train workload's model; the environment block prints
// its summary on every workload.
func trainPlan() (*nn.MBSPlan, error) {
	m := nn.BuildSmallCNN(rand.New(rand.NewSource(1)), 3, 16, 8, nn.NormGroup, 8)
	return m.PlanMBS([]int{trainBatch, 3, 16, 16}, nn.MBSPlanConfig{SubBatch: trainSub, BudgetBytes: trainBudget})
}

func runWorkload(out io.Writer, name string, w workload, seed int64, d time.Duration, traced bool) (*result, error) {
	ctx := context.Background()
	// Pin the GEMM configuration instead of autotuning: the tuner's pick
	// varies from start to start on a loaded host.
	if _, err := tensor.SetKernelConfig(tensor.DefaultKernelConfig()); err != nil {
		return nil, err
	}
	plan, err := trainPlan()
	if err != nil {
		return nil, err
	}
	refStart := hostRef(21)
	fmt.Fprintf(out, "# workload=%s seed=%d seconds=%g trace=%v\n", name, seed, d.Seconds(), traced)
	fmt.Fprintf(out, "# %s\n", w.why)
	fmt.Fprintf(out, "# nproc=%d GOMAXPROCS=%d tensor.threads=%d simd=%v kernel=%s go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), tensor.Threads(), tensor.SIMDEnabled(),
		tensor.CurrentKernelConfig(), runtime.Version())
	fmt.Fprintf(out, "# %s\n", plan.Summary())
	fmt.Fprintf(out, "# sweep cache bound=%d MiB, infer replicas=2, shedding on\n", serverCacheMB)
	fmt.Fprintf(out, "# host.ref_ms start=%.4f\n", refStart)

	res := &result{Correct: true, Metrics: map[string]metric{}}
	m := metrics(res.Metrics)
	var windows []*window
	setups := make([]float64, 0, setupRuns)
	newInstance := func() (instance, error) {
		t0 := time.Now()
		inst, err := w.setup(seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := inst.check(); err != nil {
			fmt.Fprintln(out, "# set-up check FAILED:", err)
			res.Correct = false
			res.Attempted++
			res.Failed++
		}
		return inst, nil
	}

	if !traced {
		inst, err := newInstance()
		if err != nil {
			return nil, err
		}
		win, err := inst.run(ctx, d, nil)
		if err != nil {
			inst.close()
			return nil, err
		}
		rss := peakRSSMiB()
		err = inst.verify(ctx, win)
		inst.close()
		if err != nil {
			return nil, err
		}
		windows = append(windows, win)
		if setups, err = timeSetups(w, seed, setups); err != nil {
			return nil, err
		}
		e := quietStats(win)
		values := map[string]float64{
			"setup_s": median(setups), "peak_rss_mb": rss,
			"items_per_s": e.itemsPerSec, "p50_ms": e.p50, "p90_ms": e.p90,
		}
		for _, n := range endToEndNames {
			m.set(n.name, n.unit, values[n.name])
		}
		all := summarize(latencies(win.ops))
		fmt.Fprintf(out, "# ops=%d; quieter %d of %d slices of %v: %d ops; setups=%d\n",
			all.N, e.quiet, e.slices, win.length/time.Duration(e.slices), e.quietOps, len(setups))
		fmt.Fprintf(out, "# per-slice p50_ms=%.3f\n", e.sliceP50)
		fmt.Fprintf(out, "# all slices (diagnostic): p50_ms=%.4f p90_ms=%.4f p99_ms=%.4f (highest supported percentile p%g)\n",
			all.P50, all.P90, all.P99, 100*all.Tail)
		if !supported(e.quietOps, 0.9) {
			fmt.Fprintf(out, "# WARNING: %d ops do not support p90 (needs %d beyond it)\n", e.quietOps, minBeyond)
		}
	} else {
		half := d / 2
		instA, err := newInstance()
		if err != nil {
			return nil, err
		}
		winA, err := instA.run(ctx, half, nil)
		if err == nil {
			err = instA.verify(ctx, winA)
		}
		instA.close()
		if err != nil {
			return nil, err
		}
		instB, err := newInstance()
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		winB, err := instB.run(ctx, half, tr)
		if err == nil {
			err = instB.verify(ctx, winB)
		}
		if err == nil {
			err = instB.replay(ctx, tr)
		}
		if err != nil {
			instB.close()
			return nil, err
		}
		spans := tr.snapshot()
		agg := aggregate(spans)
		for _, n := range perLayerNames {
			m.set(n.name, n.unit, 0)
		}
		instB.layers(winA, winB, agg, m)
		instB.close()
		windows = append(windows, winA, winB)

		eA, eB := quietStats(winA), quietStats(winB)
		latA := summarize(latencies(winA.ops))
		m.set("runtime.gc_cycles", "count", float64(winA.gcCycles))
		m.set("runtime.gc_pause_ms", "ms", float64(winA.gcPauseNS)/1e6)
		m.set("op.p99_ms", "ms", latA.P99)
		m.set("op.samples", "count", float64(latA.N))
		m.set("trace.overhead_p50_ms", "ms", eB.p50-eA.p50)
		m.set("trace.overhead_items_per_s", "1/s", eB.itemsPerSec-eA.itemsPerSec)
		setPlanMetrics(m, plan)
		path, err := writeSpans(spanDir, name, seed, spans)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# untraced: ops=%d p50_ms=%.4f items_per_s=%.2f; traced: ops=%d p50_ms=%.4f items_per_s=%.2f\n",
			len(winA.ops), eA.p50, eA.itemsPerSec, len(winB.ops), eB.p50, eB.itemsPerSec)
		fmt.Fprintf(out, "# %d spans written to %s\n", len(spans), path)
		printSelfTimes(out, agg)
	}

	for _, win := range windows {
		res.Attempted += win.attempted
		res.Failed += win.failed
		if win.wrong > 0 {
			res.Correct = false
		}
	}
	refEnd := hostRef(21)
	fmt.Fprintf(out, "# host.ref_ms end=%.4f\n", refEnd)
	if traced {
		m.set("host.ref_ms", "ms", (refStart+refEnd)/2)
	}
	printMetrics(out, m)
	return res, nil
}

// timeSetups tops setups up to setupRuns with fresh, torn-down set-ups,
// spaced so that one set-up does not overlap the previous one's teardown
// and the median samples the host over a second or more, not one instant.
func timeSetups(w workload, seed int64, setups []float64) ([]float64, error) {
	for len(setups) < setupRuns {
		time.Sleep(setupGap)
		t0 := time.Now()
		inst, err := w.setup(seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst.close()
	}
	return setups, nil
}

// setPlanMetrics sets the exact plan counts of the train workload.
func setPlanMetrics(m metrics, p *nn.MBSPlan) {
	m.set("nn.plan_groups", "count", float64(len(p.Groups)))
	m.set("nn.plan_boundary_mb", "MiB", float64(p.BoundaryBytes)/(1<<20))
	m.set("nn.plan_arena_mb", "MiB", float64(p.PeakArenaBytes)/(1<<20))
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

func printMetrics(out io.Writer, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "# %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func printSelfTimes(out io.Writer, agg map[string]spanStat) {
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "# %-24s %8s %12s %12s\n", "span", "count", "mean_ms", "self_ms")
	for _, n := range names {
		s := agg[n]
		fmt.Fprintf(out, "# %-24s %8d %12.4f %12.4f\n", n, s.Count, s.meanMS(), s.meanSelfMS())
	}
}

// runAll runs every workload, each in its own process, passing the other
// flags through. It forwards each child's output and ends with one JSON
// line whose metrics are prefixed by workload name.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var rest []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "--workload" || a == "-workload":
			i++
		case strings.HasPrefix(a, "--workload=") || strings.HasPrefix(a, "-workload="):
		default:
			rest = append(rest, a)
		}
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range []string{"train", "infer", "sweep"} {
		cmd := exec.Command(self, append([]string{"--workload", name}, rest...)...)
		cmd.Stderr = stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			last = sc.Text()
			fmt.Fprintln(stdout, last)
		}
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", name, err)
			return 1
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s: bad result line: %v\n", name, err)
			return 1
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[name+"."+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
