package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/pkg/client"
)

// The infer workload: an open loop of Poisson arrivals at a fixed rate,
// about a twelfth of the rate at which nproc connections saturate the
// server on the reference host when it is quiet. The generator holds at
// most nproc requests in flight, so a request due while all of them are
// busy waits for one to return. The rate keeps that wait rare enough (a few
// percent of requests) to stay below p90, which would otherwise grow with
// every slow phase of the shared host: at 180 req/s the server fell behind
// its schedule, at 60 req/s the p90 of ten runs spread by up to 0.3.
const (
	inferRate = 30.0 // requests per second
	inferPool = 64   // distinct seeded input samples
	// predictReps is how many direct Predictor.Forward calls the traced run
	// times per batch size.
	predictReps = 400
)

type inferInst struct {
	seed int64
	srv  *server
	pool [][]float64
	ref  [][]float64 // reference logits per pool sample
	pred *nn.Predictor
	spec infer.ModelSpec

	// traced-window observations
	before, after         *client.MetricsSnapshot
	statsBefore, statsNow infer.Stats
	sendMS, lagMS         float64 // means over the window's ops
	predictMS             [2]float64
}

func setupInfer(seed int64) (instance, error) {
	spec, ok := infer.Lookup("smallcnn")
	if !ok {
		return nil, fmt.Errorf("infer: smallcnn not in the serving registry")
	}
	in := &inferInst{seed: seed, spec: spec}
	rng := rand.New(rand.NewSource(seed))
	in.pool = make([][]float64, inferPool)
	for i := range in.pool {
		in.pool[i] = make([]float64, spec.InSize())
		for j := range in.pool[i] {
			in.pool[i][j] = rng.NormFloat64()
		}
	}
	srv, err := startServer(func(ctx context.Context, cl *client.Client) error {
		_, err := cl.Infer(ctx, in.pool[:1])
		return err
	})
	if err != nil {
		return nil, err
	}
	in.srv = srv
	return in, nil
}

// check compiles the reference predictor and takes each pool sample's
// logits once; every served sample must match them bit for bit.
func (in *inferInst) check() error {
	pred, err := in.spec.NewPredictor(8)
	if err != nil {
		return err
	}
	in.pred = pred
	in.ref = make([][]float64, len(in.pool))
	for i, x := range in.pool {
		out := pred.Forward(tensor.FromSlice(append([]float64(nil), x...), append([]int{1}, in.spec.InShape...)...))
		in.ref[i] = append([]float64(nil), out.Data...)
	}
	return nil
}

// sameBits reports bit equality of two logit rows.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

type inferResult struct {
	lat, send, lag time.Duration
	due, done      time.Duration // offsets from the window start
	items          int
	ok, wrong      bool
}

func (in *inferInst) run(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	ops := inferStream(in.seed, inferRate, d, inferPool)
	in.srv.tracer.Store(tr) // server-side spans join the client's
	if tr != nil {
		var err error
		if in.before, err = in.srv.cl.Metrics(ctx); err != nil {
			return nil, err
		}
		in.statsBefore = in.srv.svc.Batcher().Stats()
	}
	results := make([]inferResult, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	mem := startMem()
	start := time.Now()
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				results[i] = in.do(ctx, tr, int64(i), ops[i], start)
			}
		}()
	}
	wg.Wait()
	w := &window{length: d, openLoop: true}
	var lastDone time.Duration
	var send, lag float64
	for _, r := range results {
		w.record(r.due, r.lat, r.items, r.ok, r.wrong)
		lastDone = max(lastDone, r.done)
		send += float64(r.send) / 1e6
		lag += float64(r.lag) / 1e6
	}
	w.elapsed = lastDone
	mem.finish(w)
	n := float64(max(len(results), 1))
	in.sendMS, in.lagMS = send/n, lag/n
	if tr != nil {
		var err error
		if in.after, err = in.srv.cl.Metrics(ctx); err != nil {
			return nil, err
		}
		in.statsNow = in.srv.svc.Batcher().Stats()
	}
	return w, nil
}

// do sends one request at its due time; latency counts from the due time,
// so a stalled generator charges the wait to the requests it delayed.
func (in *inferInst) do(ctx context.Context, tr *tracer, op int64, o inferOp, start time.Time) inferResult {
	due := start.Add(o.Due)
	if wait := time.Until(due); wait > 0 {
		time.Sleep(wait)
	}
	inputs := make([][]float64, len(o.Inputs))
	for j, k := range o.Inputs {
		inputs[j] = in.pool[k]
	}
	sent := time.Now()
	id := tr.start("infer.request", op, -1)
	resp, err := in.srv.cl.Infer(withSpan(ctx, op, id), inputs)
	tr.end(id)
	now := time.Now()
	r := inferResult{lat: now.Sub(due), send: now.Sub(sent), lag: sent.Sub(due),
		due: o.Due, done: now.Sub(start), items: len(inputs)}
	if err != nil {
		return r
	}
	if len(resp.Outputs) != len(inputs) {
		r.wrong = true
		return r
	}
	for j, k := range o.Inputs {
		if !sameBits(resp.Outputs[j], in.ref[k]) {
			r.wrong = true
			return r
		}
	}
	r.ok = true
	return r
}

// replay times the reference predictor directly at batch 1 and batch 8.
func (in *inferInst) replay(_ context.Context, tr *tracer) error {
	for k, n := range []int{1, 8} {
		x := tensor.New(append([]int{n}, in.spec.InShape...)...)
		for i := 0; i < n; i++ {
			copy(x.Data[i*in.spec.InSize():], in.pool[i])
		}
		name := fmt.Sprintf("nn.predict.b%d", n)
		in.pred.Forward(x) // warm the batch size's buffers
		ms := make([]float64, predictReps)
		for r := range ms {
			id := tr.start(name, int64(r), -1)
			t0 := time.Now()
			in.pred.Forward(x)
			ms[r] = float64(time.Since(t0)) / 1e6
			tr.end(id)
		}
		in.predictMS[k] = median(ms)
	}
	return nil
}

func (in *inferInst) layers(_, _ *window, _ map[string]spanStat, m metrics) {
	const route = "POST /v2/infer"
	server := histMeanMS(in.before, in.after, "http_request_duration_seconds", "route", route, "phase", "total")
	m.set("service.infer_ms", "ms", server)
	m.set("http.overhead_ms", "ms", in.sendMS-server)
	m.set("infer.queue_wait_ms", "ms", histMeanMS(in.before, in.after, "infer_queue_wait_seconds"))
	b0, b1 := in.statsBefore, in.statsNow
	if batches := b1.Batches - b0.Batches; batches > 0 {
		m.set("infer.batch_mean", "count", float64(b1.Items-b0.Items)/float64(batches))
		m.set("infer.full_flush_ratio", "ratio", float64(b1.FullFlushes-b0.FullFlushes)/float64(batches))
	}
	m.set("infer.shed", "count", float64(b1.Shed-b0.Shed))
	m.set("nn.predict_ms.b1", "ms", in.predictMS[0])
	m.set("nn.predict_ms.b8", "ms", in.predictMS[1])
	m.set("loadgen.lag_ms", "ms", in.lagMS)
}

// verify is a no-op: every output is checked inside the loop.
func (in *inferInst) verify(context.Context, *window) error { return nil }

func (in *inferInst) close() { in.srv.close() }
