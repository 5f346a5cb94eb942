package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/pkg/client"
)

// serverCacheMB is the sweep engine's cache bound, as `make load-smoke`
// starts mbsd.
const serverCacheMB = 64

// server is mbsd's handler run in-process on a loopback listener, driven
// through pkg/client.
type server struct {
	svc       *service.Server
	srv       *http.Server
	transport *http.Transport
	cl        *client.Client
	served    chan error
	tracer    atomic.Pointer[tracer]
}

// startServer configures the service as `make load-smoke` runs mbsd
// (64 MiB engine cache, 2 inference replicas, shedding on, in-memory job
// store) and waits until it answers.
func startServer(warm func(context.Context, *client.Client) error) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		svc: service.New(service.Config{
			CacheMaxBytes: serverCacheMB << 20,
			InferReplicas: 2,
			InferShed:     true,
		}),
		served: make(chan error, 1),
		transport: &http.Transport{
			MaxIdleConnsPerHost: clients(),
			MaxConnsPerHost:     clients(),
		},
	}
	s.srv = &http.Server{
		Handler:           traceHandler(s.tracer.Load, s.svc.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	s.cl = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: traceTransport{base: s.transport}}))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := warm(ctx, s.cl); err != nil {
		s.close()
		return nil, fmt.Errorf("server warm-up: %w", err)
	}
	return s, nil
}

// close stops the listener and connections, then the service, and waits
// for the serving goroutine to return.
func (s *server) close() {
	_ = s.srv.Close() // the only error is the listener's, which Serve reports
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Println("# server:", err)
	}
	s.svc.Close()
	s.transport.CloseIdleConnections()
}

// histMeanMS is the mean of a seconds histogram's observations between two
// scrapes, in milliseconds (0 when nothing was observed).
func histMeanMS(before, after *client.MetricsSnapshot, name string, labels ...string) float64 {
	sum := after.Sum(name+"_sum", labels...) - before.Sum(name+"_sum", labels...)
	n := after.Sum(name+"_count", labels...) - before.Sum(name+"_count", labels...)
	if n <= 0 {
		return 0
	}
	return 1000 * sum / n
}
