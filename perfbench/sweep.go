package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/models"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/pkg/client"
)

const (
	// replayCells is how many stream cells the traced run replays call by
	// call through models, core, sim and the experiments renderer.
	replayCells = 16
	// probeSeed and probeOps fix the op stream the simulated totals are
	// summed over, independent of --seed, so the totals repeat exactly on
	// every run.
	probeSeed = 0
	probeOps  = 16
)

type sweepInst struct {
	seed int64
	srv  *server
	ref  experiments.Runner // unbounded in-process engine for output checks

	// traced-window observations
	before, after         *client.MetricsSnapshot
	cacheBefore, cacheNow sweep.Stats
	jobsBefore, jobsNow   jobs.Stats
	results               []sweepResult
}

type sweepResult struct {
	op      sweepOp
	id      int64
	at, lat time.Duration
	cells   int
	sum     [32]byte
	shards  int
	ok      bool
}

func setupSweep(seed int64) (instance, error) {
	srv, err := startServer(func(ctx context.Context, cl *client.Client) error {
		_, err := cl.Scenarios(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &sweepInst{
		seed: seed,
		srv:  srv,
		ref:  experiments.Runner{E: sweep.New(0)},
	}, nil
}

func (s *sweepInst) check() error { return nil }

func (s *sweepInst) run(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	s.srv.tracer.Store(tr) // server-side spans join the client's
	if tr != nil {
		var err error
		if s.before, err = s.srv.cl.Metrics(ctx); err != nil {
			return nil, err
		}
		s.cacheBefore, s.jobsBefore = s.srv.svc.Engine().Cache().Stats(), s.srv.svc.Jobs().Stats()
	}
	gen := newSweepGen(s.seed)
	var mu sync.Mutex
	var results []sweepResult
	var wg sync.WaitGroup
	mem := startMem()
	start := time.Now()
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				mu.Lock()
				id, op := int64(len(results)), gen.next()
				results = append(results, sweepResult{})
				mu.Unlock()
				r := s.do(ctx, tr, id, op, start)
				mu.Lock()
				results[id] = r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w := &window{length: d}
	mem.finish(w)
	if tr != nil {
		var err error
		if s.after, err = s.srv.cl.Metrics(ctx); err != nil {
			return nil, err
		}
		s.cacheNow, s.jobsNow = s.srv.svc.Engine().Cache().Stats(), s.srv.svc.Jobs().Stats()
	}
	for _, r := range results {
		w.record(r.at, r.lat, r.cells, r.ok, false)
	}
	s.results = results
	return w, nil
}

// verify checks every body, after the clock stops, against the in-process
// Scenario.Run + JSONValue rendering of the same params; a mismatch turns
// its op into a failure. Distinct params render once, nproc at a time.
func (s *sweepInst) verify(ctx context.Context, w *window) error {
	todo := map[string]map[string]string{}
	for _, r := range s.results {
		if k := paramsKey(r.op.Params); r.ok && todo[k] == nil {
			todo[k] = r.op.Params
		}
	}
	want := make(map[string][32]byte, len(todo))
	keys := make(chan string)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				sum, err := s.reference(ctx, todo[k])
				mu.Lock()
				want[k] = sum
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for k := range todo {
		keys <- k
	}
	close(keys)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	for i, r := range s.results {
		if r.ok && want[paramsKey(r.op.Params)] != r.sum {
			w.fail(i)
		}
	}
	return nil
}

// do runs op i: a synchronous /v1/run, or a job that is submitted,
// streamed to its done event, and fetched.
func (s *sweepInst) do(ctx context.Context, tr *tracer, i int64, op sweepOp, start time.Time) sweepResult {
	r := sweepResult{op: op, id: i}
	cells, err := experiments.SweepCells(op.Params)
	if err != nil {
		return r
	}
	r.cells = len(cells)
	t0 := time.Now()
	r.at = t0.Sub(start)
	id := tr.start("sweep.op", i, -1)
	body, shards, err := s.call(withSpan(ctx, i, id), op)
	tr.end(id)
	r.lat = time.Since(t0)
	r.shards = shards
	if err == nil {
		r.sum = sha256.Sum256(body)
		r.ok = true
	}
	return r
}

func (s *sweepInst) call(ctx context.Context, op sweepOp) ([]byte, int, error) {
	cl := s.srv.cl
	if !op.ViaJobs {
		body, err := cl.Run(ctx, client.RunRequest{Scenario: "sweep", Params: op.Params})
		return body, 0, err
	}
	job, err := cl.Submit(ctx, "sweep", op.Params)
	if err != nil {
		return nil, 0, err
	}
	done, err := streamToDone(ctx, cl, job.ID)
	if err != nil {
		return nil, 0, err
	}
	body, err := cl.Result(ctx, job.ID)
	return body, done.Shards, err
}

// streamToDone reads a job's stream to its end and returns the done
// event's status. Reading to EOF before the next call returns the
// connection to the pool, which holds only nproc connections.
func streamToDone(ctx context.Context, cl *client.Client, id string) (*client.Job, error) {
	st, err := cl.Stream(ctx, id)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var done *client.Job
	for {
		ev, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if ev.Type == "done" {
			done = ev.Job
		}
	}
	if done == nil || done.State != client.JobDone {
		return nil, fmt.Errorf("job %s: stream ended without a done event in state done", id)
	}
	return done, nil
}

// reference renders params in-process exactly as the service does and
// returns the digest of the bytes.
func (s *sweepInst) reference(ctx context.Context, params map[string]string) ([32]byte, error) {
	sc, _ := experiments.Lookup("sweep")
	data, err := sc.Run(ctx, s.ref, experiments.Params(params), nil)
	if err != nil {
		return [32]byte{}, err
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, sc.JSONValue(data)); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// replay re-executes sampled stream cells call by call — network build,
// schedule, traffic ledger, simulation, rendering — uncached, as a cache
// miss pays them.
func (s *sweepInst) replay(ctx context.Context, tr *tracer) error {
	if len(s.results) == 0 {
		return nil
	}
	step := max(len(s.results)/replayCells, 1)
	for k := 0; k < replayCells && k*step < len(s.results); k++ {
		r := s.results[k*step]
		cells, err := experiments.SweepCells(r.op.Params)
		if err != nil {
			return err
		}
		cell := cells[int(r.id)%len(cells)]
		op := int64(k)
		opts := cell.Options()
		id := tr.start("models.build", op, -1)
		net, err := models.Build(cell.Network)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.start("core.plan", op, -1)
		sched, err := core.Plan(net, opts)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.start("core.traffic", op, -1)
		traffic := core.ComputeTraffic(sched)
		tr.end(id)
		hw := sim.DefaultHW(cell.Config, cell.Memory)
		hw.GB = hw.GB.WithSize(opts.BufferBytes)
		id = tr.start("sim.simulate", op, -1)
		res, err := sim.SimulateTraffic(sched, traffic, hw)
		tr.end(id)
		if err != nil {
			return err
		}
		sc, _ := experiments.Lookup("sweep")
		id = tr.start("experiments.render", op, -1)
		err = report.WriteJSON(io.Discard, sc.JSONValue([]sweep.Row{sweep.RowOf(cell, res)}))
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// simTotals sums simulated DRAM traffic and step time over the fixed probe
// stream. The simulator is deterministic, so the totals repeat exactly.
func (s *sweepInst) simTotals(ctx context.Context) (dramGB, stepS float64, err error) {
	for _, op := range sweepStream(probeSeed, probeOps) {
		cells, err := experiments.SweepCells(op.Params)
		if err != nil {
			return 0, 0, err
		}
		for _, c := range cells {
			res, err := s.ref.E.Simulate(ctx, c)
			if err != nil {
				return 0, 0, err
			}
			dramGB += float64(res.DRAMBytes) / 1e9
			stepS += res.StepSeconds
		}
	}
	return dramGB, stepS, nil
}

func (s *sweepInst) layers(_, _ *window, agg map[string]spanStat, m metrics) {
	const route = "POST /v1/run"
	for _, phase := range []string{"queue", "compute", "render"} {
		m.set("service.run_"+phase+"_ms", "ms",
			histMeanMS(s.before, s.after, "http_request_duration_seconds", "route", route, "phase", phase))
	}
	var jobMS float64
	var jobOps, shards int
	for _, r := range s.results {
		if r.op.ViaJobs && r.ok {
			jobOps++
			jobMS += float64(r.lat) / 1e6
			shards += r.shards
		}
	}
	if jobOps > 0 {
		m.set("jobs.op_ms", "ms", jobMS/float64(jobOps))
		m.set("jobs.shards_per_job", "count", float64(shards)/float64(jobOps))
	}
	m.set("jobs.requeues", "count", float64(s.jobsNow.Requeues-s.jobsBefore.Requeues))
	c0, c1 := s.cacheBefore, s.cacheNow
	hits, misses := c1.Hits()-c0.Hits(), c1.Misses()-c0.Misses()
	if hits+misses > 0 {
		m.set("sweep.hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	}
	m.set("sweep.plan_misses", "count", float64(c1.PlanMisses-c0.PlanMisses))
	m.set("sweep.traffic_misses", "count", float64(c1.TrafficMisses-c0.TrafficMisses))
	m.set("sweep.evictions", "count", float64(c1.Evictions()-c0.Evictions()))
	m.set("sweep.cache_mb", "MiB", float64(c1.Bytes)/(1<<20))
	for _, n := range []string{"models.build", "core.plan", "core.traffic", "sim.simulate", "experiments.render"} {
		m.set(n+"_ms", "ms", agg[n].meanMS())
	}
	dram, step, err := s.simTotals(context.Background())
	if err != nil {
		fmt.Println("# sim totals:", err)
		return
	}
	m.set("sim.dram_gb_total", "GB", dram)
	m.set("sim.step_s_total", "sim_s", step)
}

func (s *sweepInst) close() { s.srv.close() }
