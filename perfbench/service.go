package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/server"
)

// service is qschedd in process: server.New over an EvalCache, served
// on a loopback listener, and a client holding at most nproc
// connections. The server's handler is wrapped to time each request
// from the outside.
type service struct {
	cache  *core.EvalCache
	srv    *server.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string

	seq atomic.Int64

	mu        sync.Mutex
	handlerMS map[string]float64 // by X-Request-ID
}

// startService starts a server whose cache is memory-only when dir is
// empty and otherwise backed by a cas store in dir holding at most
// memEntries entries in memory (0 = unbounded).
func startService(dir string, memEntries int) (*service, error) {
	cache := core.NewEvalCache()
	if dir != "" {
		var err error
		if cache, err = core.OpenEvalCache(core.CacheConfig{Dir: dir, MemEntries: memEntries}); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cache.Close()
		return nil, err
	}
	s := &service{
		cache:     cache,
		served:    make(chan error, 1),
		base:      "http://" + ln.Addr().String(),
		handlerMS: map[string]float64{},
	}
	s.srv = server.New(server.Options{Cache: cache})
	h := s.srv.Handler()
	s.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, r)
		d := ms(time.Since(t))
		s.mu.Lock()
		s.handlerMS[r.Header.Get("X-Request-ID")] = d
		s.mu.Unlock()
	})}
	go func() { s.served <- s.hs.Serve(ln) }()
	n := runtime.NumCPU()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
	resp, err := s.client.Get(s.base + "/v1/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// svcResult is one request's reply and its client-observed latency.
type svcResult struct {
	req    svcReq
	id     string
	ms     float64
	first  bool // first compile request for its config in this run
	status int
	body   []byte
	err    error
}

// send posts body to rq.path under a fresh request id and times the
// round trip.
func (s *service) send(rq svcReq, body []byte) (x svcResult) {
	x = svcResult{req: rq, id: fmt.Sprintf("perfbench-%d", s.seq.Add(1))}
	t := time.Now()
	defer func() { x.ms = ms(time.Since(t)) }()
	hr, err := http.NewRequest(http.MethodPost, s.base+rq.path, bytes.NewReader(body))
	if err != nil {
		x.err = err
		return x
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Request-ID", x.id)
	resp, err := s.client.Do(hr)
	if err != nil {
		x.err = err
		return x
	}
	defer resp.Body.Close()
	x.status = resp.StatusCode
	x.body, x.err = io.ReadAll(resp.Body)
	return x
}

// handlerTimes returns the handler time of every request so far, by id.
func (s *service) handlerTimes() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.handlerMS)
}

func (s *service) counter(name string) int64 { return s.srv.Registry().Counter(name).Value() }

// close stops the listener, waits for in-flight handlers and the serve
// goroutine, then releases the server and its cache.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout still falls through to Close below
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
	_ = s.srv.Drain(ctx)
	s.srv.Close()
	s.cache.Close()
	s.client.CloseIdleConnections()
}
