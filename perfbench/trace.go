package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers. Spans of one op share Op; Parent is the index of the span that
// caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// start opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) start(name string, op int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children are counted once), indexed
// like spans. Spans must carry their own index as ID.
func selfTimes(spans []span) []int64 {
	byID := make(map[int32]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make(map[int][][2]int64)
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if s.Parent < 0 || !ok {
			continue
		}
		lo, hi := max(s.Start, spans[p].Start), min(s.End, spans[p].End)
		if hi > lo {
			children[p] = append(children[p], [2]int64{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(children[i])
	}
	return self
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count       int
	TotalMS     float64
	SelfTotalMS float64
}

func (s spanStat) meanMS() float64     { return s.TotalMS / float64(max(s.Count, 1)) }
func (s spanStat) meanSelfMS() float64 { return s.SelfTotalMS / float64(max(s.Count, 1)) }

// aggregate groups spans by name.
func aggregate(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	out := make(map[string]spanStat)
	for i, s := range spans {
		st := out[s.Name]
		st.Count++
		st.TotalMS += float64(s.End-s.Start) / 1e6
		st.SelfTotalMS += float64(self[i]) / 1e6
		out[s.Name] = st
	}
	return out
}

// writeSpans dumps spans as JSON lines under dir.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}

// Span context propagation across the loopback HTTP hop: the client's
// transport copies the caller's span into two headers and the server-side
// wrapper opens a child span under it.
const (
	headerOp   = "X-Perfbench-Op"
	headerSpan = "X-Perfbench-Span"
)

type spanRef struct {
	op int64
	id int32
}

type spanKey struct{}

func withSpan(ctx context.Context, op int64, id int32) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{op, id})
}

// traceTransport stamps the caller's span onto outgoing requests.
type traceTransport struct{ base http.RoundTripper }

func (t traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok && ref.id >= 0 {
		r = r.Clone(r.Context())
		r.Header.Set(headerOp, strconv.FormatInt(ref.op, 10))
		r.Header.Set(headerSpan, strconv.Itoa(int(ref.id)))
	}
	return t.base.RoundTrip(r)
}

// traceHandler wraps the service handler: a request carrying span headers
// gets a server-side child span named by route.
func traceHandler(tr func() *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tr()
		parent, err := strconv.Atoi(r.Header.Get(headerSpan))
		if t == nil || err != nil {
			next.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseInt(r.Header.Get(headerOp), 10, 64)
		id := t.start(routeSpan(r), op, int32(parent))
		next.ServeHTTP(w, r)
		t.end(id)
	})
}

// routeSpan names the server-side span of a request.
func routeSpan(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v2/infer":
		return "service.infer"
	case p == "/v1/run":
		return "service.run"
	case p == "/v2/jobs" && r.Method == http.MethodPost:
		return "jobs.submit"
	case strings.HasSuffix(p, "/stream"):
		return "jobs.stream"
	case strings.HasSuffix(p, "/result"):
		return "jobs.result"
	}
	return "service.other"
}
