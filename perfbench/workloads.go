package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/ir"
)

const (
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 50
	// minPasses keeps a median meaningful when one pass outlasts
	// --seconds (the ladder's passes take several seconds each).
	minPasses = 5
	// warmReps is how many warm passes follow each cold pass.
	warmReps = 3
	// minSweeps is the fewest cold sweeps of its whole config space the
	// service workload times; sweepShare is the share of --seconds the
	// sweeps get, the closed loop taking the rest.
	minSweeps  = 3
	sweepShare = 4
)

// evalChecked evaluates one item at the default worker count and checks
// the result against its pin.
func (r *run) evalChecked(ctx context.Context, it item, p *ir.Program, workers int, cache *core.EvalCache) {
	opts, err := it.evalOptions(workers, cache)
	if err == nil {
		var m *core.Metrics
		if m, err = core.EvaluateContext(ctx, p, opts); err == nil {
			err = r.pins.checkMetrics(it.key(), m)
		}
	}
	r.check(err)
}

// batchPass is one cold pass of a batch workload and the warm passes
// after it.
type batchPass struct {
	coldS, allocMB, p50MS, p90MS float64
	warmMS                       []float64
	fps                          map[string]ir.Fingerprint
}

// batchPass builds every program from source and evaluates it under
// every config on a fresh cache of its own, then re-evaluates each
// program on its cache warmReps times.
func (r *run) batchPass(ctx context.Context, order []*program, cfgs []evalCfg) batchPass {
	out := batchPass{fps: map[string]ir.Fingerprint{}}
	var progs []built
	var caches []*core.EvalCache
	var opMS []float64
	a0 := allocBytes()
	t0 := time.Now()
	for _, p := range order {
		t := time.Now()
		irp, err := p.build()
		if err != nil {
			r.check(err)
			continue
		}
		cache := core.NewEvalCache()
		for _, c := range cfgs {
			r.evalChecked(ctx, item{p, c}, irp, 0, cache)
		}
		opMS = append(opMS, ms(time.Since(t)))
		progs = append(progs, built{p, irp})
		caches = append(caches, cache)
	}
	out.coldS = time.Since(t0).Seconds()
	out.allocMB = float64(allocBytes()-a0) / mb
	out.p50MS, out.p90MS = quantile(opMS, 0.5), quantile(opMS, 0.9)
	for i := 0; i < warmReps; i++ {
		t := time.Now()
		for j, b := range progs {
			for _, c := range cfgs {
				r.evalChecked(ctx, item{b.prog, c}, b.ir, 0, caches[j])
			}
		}
		out.warmMS = append(out.warmMS, ms(time.Since(t)))
	}
	for _, b := range progs {
		out.fps[b.prog.name] = b.ir.Fingerprint()
	}
	return out
}

// batch is the ladder and suite workloads: one untimed warm-up pass,
// which grows the heap to its working size, then timed passes for
// --seconds, at least minPasses of them.
func (r *run) batch(gen func() []*program, cfgs []evalCfg) error {
	var setups []float64
	var order []*program
	for range setupReps {
		runtime.GC()
		t := time.Now()
		order = shuffled(gen(), r.seed)
		core.NewEvalCache()
		setups = append(setups, time.Since(t).Seconds())
	}
	// Every pass draws a fresh program order from the seed, so no single
	// order's effect on the heap and the GC sets a run's figures.
	rng := rand.New(rand.NewSource(r.seed))
	reorder := func() []*program {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		return order
	}
	ctx := context.Background()
	warmup := r.batchPass(ctx, reorder(), cfgs)
	var cold, warm, alloc, p50, p90 []float64
	var last batchPass
	start := time.Now()
	for len(cold) < minPasses || time.Since(start) < r.seconds {
		last = r.batchPass(ctx, reorder(), cfgs)
		cold = append(cold, last.coldS)
		alloc = append(alloc, last.allocMB)
		p50 = append(p50, last.p50MS)
		p90 = append(p90, last.p90MS)
		warm = append(warm, last.warmMS...)
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["compile_s"] = median(cold)
	r.metrics["warm_ms"] = median(warm)
	r.metrics["alloc_mb"] = median(alloc)
	r.metrics["req_p50_ms"] = median(p50)
	r.metrics["req_p90_ms"] = median(p90)
	r.metrics["req_per_s"] = float64(len(order)) / median(cold)
	r.note("%d timed cold passes after a %.2f s warm-up pass, %d warm passes; a request is one program's cold compile under %d config(s), %d per pass; req_p50/p90 are medians over passes",
		len(cold), warmup.coldS, len(warm), len(cfgs), len(order))
	r.note("cold pass s: min %.4f, median %.4f, max %.4f", quantile(cold, 0), median(cold), quantile(cold, 1))
	r.verifyWalk(order, cfgs, last.fps)
	return nil
}

// verifyWalk is the per-run legality check, outside the timed region:
// it rebuilds every program layer by layer, checks the result is the
// program core.Build produced, and runs verify.Full on every leaf
// schedule under every config.
func (r *run) verifyWalk(progs []*program, cfgs []evalCfg, fps map[string]ir.Fingerprint) {
	t := time.Now()
	w := newWalker(nil, true)
	r.walkAll(w, progs, cfgs, fps)
	r.note("verify.Full passed on %.0f leaf schedules in %.1f s", w.counts["verify.points"], time.Since(t).Seconds())
}

// Service mix.
const (
	// serviceMemEntries keeps the cache's memory front far smaller than
	// the mix's working set, so evictions send lookups to disk.
	serviceMemEntries = 1024
	// popularitySeed fixes which configs are popular; --seed drives only
	// the draw, so seeds differ in sample path, not in the mix.
	popularitySeed = 20150314
	zipfS          = 1.1
	verifyShare    = 0.04
	reportShare    = 0.02
	// warmupReqs is how many requests of the draw run before the timed
	// loop: enough for the mix's popular configs to be compiled and the
	// cache's disk layer to hold them.
	warmupReqs = 1500
)

type svcReq struct {
	path string
	item int // index into the mix's items
}

// drawRequests is the run's request sequence, long enough that no run
// exhausts it; the loop wraps if one does.
func (r *run) drawRequests() []svcReq {
	return genRequests(r.seed, 1<<16, len(gatedPrograms())*len(serviceCfgs()))
}

// genRequests draws n requests: a Zipf-popular config from the gated
// bench × k × scheduler × local space, mostly /v1/compile with small
// shares of /v1/verify and /v1/report.
func genRequests(seed int64, n, nItems int) []svcReq {
	rank := rand.New(rand.NewSource(popularitySeed)).Perm(nItems)
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, zipfS, 1, uint64(nItems-1))
	out := make([]svcReq, n)
	for i := range out {
		path := "/v1/compile"
		switch u := rng.Float64(); {
		case u < verifyShare:
			path = "/v1/verify"
		case u < verifyShare+reportShare:
			path = "/v1/report"
		}
		out[i] = svcReq{path: path, item: rank[z.Uint64()]}
	}
	return out
}

// svcSetup is everything the service workload builds before its timed
// loop, and the loop's progress through the request draw.
type svcSetup struct {
	progs  []*program
	its    []item
	bodies [][]byte
	reqs   []svcReq
	svc    *service

	next   atomic.Int64 // index of the next request in reqs
	seenMu sync.Mutex
	seen   map[int]bool // items compiled so far
}

// setupService builds the daemon side: sources, request bodies, the
// cas cache dir and a started server. Repeated set-ups reopen the same,
// still empty, cache dir, as a restarted daemon would; creating a fresh
// one each time would time the disk more than the daemon. The request
// draw reqs is the benchmark's input and is made once, outside the
// timed set-up.
func (r *run) setupService(reqs []svcReq) (*svcSetup, error) {
	s := &svcSetup{progs: gatedPrograms(), reqs: reqs, seen: map[int]bool{}}
	s.its = items(s.progs, serviceCfgs())
	for _, it := range s.its {
		b, err := json.Marshal(it.request())
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, b)
	}
	var err error
	s.svc, err = startService(filepath.Join(r.scratch, "cas"), serviceMemEntries)
	return s, err
}

// serviceLoop drives the closed loop: nproc clients, each sending the
// draw's next request when its previous reply arrives, until d has
// passed or, when limit > 0, until the draw's first limit requests are
// sent. A later call continues the draw where this one stopped. Each
// client checks a reply as it arrives and keeps only the verdict in the
// result's err: holding every body until the loop ends would grow the
// live heap, and with it the GC's pace, as the loop runs.
func (r *run) serviceLoop(s *svcSetup, d time.Duration, limit int) []svcResult {
	clients := runtime.NumCPU()
	results := make([][]svcResult, clients)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(s.next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				rq := s.reqs[i%len(s.reqs)]
				first := false
				if rq.path == "/v1/compile" {
					s.seenMu.Lock()
					first = !s.seen[rq.item]
					s.seen[rq.item] = true
					s.seenMu.Unlock()
				}
				x := s.svc.send(rq, s.bodies[rq.item])
				x.first = first
				x.err, x.body = r.replyErr(s.its[rq.item].key(), x), nil
				results[c] = append(results[c], x)
			}
		}()
	}
	wg.Wait()
	var out []svcResult
	for _, rs := range results {
		out = append(out, rs...)
	}
	return out
}

// warmLoop sends the draw's first warmupReqs requests untimed, so that
// the timed loop starts from a populated cache whatever the host speed,
// and checks the replies.
func (r *run) warmLoop(s *svcSetup) {
	r.countLoop(r.serviceLoop(s, time.Hour, warmupReqs))
	// Each client drew one index past the limit before it stopped.
	s.next.Store(warmupReqs)
}

// countLoop counts the loop's replies, each checked as it arrived.
func (r *run) countLoop(res []svcResult) {
	for _, x := range res {
		r.check(x.err)
	}
}

// checkReply checks one response to the item with the given pin key.
func (r *run) checkReply(key string, x svcResult) { r.check(r.replyErr(key, x)) }

// replyErr compares one response to the item with the given pin key
// against the pins.
func (r *run) replyErr(key string, x svcResult) error {
	switch {
	case x.err != nil:
		return x.err
	case x.status != 200:
		return fmt.Errorf("%s %s: status %d: %s", x.req.path, key, x.status, x.body)
	case x.req.path == "/v1/report":
		return r.pins.checkReport(key, x.body)
	}
	return r.pins.checkBody(key, x.body)
}

// coldSweep sends every config of the mix once, in a fixed order from
// one client, to a fresh service on the daemon's default memory-only
// cache. It returns the wall time in seconds and the MB allocated. One
// client keeps the work fixed: concurrent requests for configs that
// share leaves can each schedule the same leaf before either result is
// cached.
func (r *run) coldSweep(s *svcSetup) (float64, float64, error) {
	svc, err := startService("", 0)
	if err != nil {
		return 0, 0, err
	}
	defer svc.close()
	res := make([]svcResult, len(s.its))
	a0 := allocBytes()
	t := time.Now()
	for j := range s.its {
		res[j] = svc.send(svcReq{path: "/v1/compile", item: j}, s.bodies[j])
	}
	d := time.Since(t).Seconds()
	alloc := float64(allocBytes()-a0) / mb
	for j, x := range res {
		r.checkReply(s.its[j].key(), x)
	}
	return d, alloc, nil
}

// service is the qschedd workload: set up a cas-backed server, run the
// closed loop for --seconds, then check every response and the
// legality of every leaf the mix can compile.
func (r *run) service() error {
	reqs := r.drawRequests()
	var setups []float64
	var s *svcSetup
	for range setupReps {
		if s != nil {
			s.svc.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		if s, err = r.setupService(reqs); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	// The cold sweeps come before the loop, so they start from the same
	// process state whatever the seed; they also warm the process up.
	var sweeps, allocs []float64
	sweepTime := r.seconds / sweepShare
	for start := time.Now(); len(sweeps) < minSweeps || time.Since(start) < sweepTime; {
		runtime.GC()
		d, alloc, err := r.coldSweep(s)
		if err != nil {
			s.svc.close()
			return err
		}
		sweeps = append(sweeps, d)
		allocs = append(allocs, alloc)
	}
	r.warmLoop(s)
	before := s.svc.cache.Stats()
	t0 := time.Now()
	res := r.serviceLoop(s, r.seconds-sweepTime, 0)
	elapsed := time.Since(t0).Seconds()
	stats := s.svc.cache.Stats()
	s.svc.close()

	var all, warm []float64
	for _, x := range res {
		all = append(all, x.ms)
		if x.req.path == "/v1/compile" && !x.first {
			warm = append(warm, x.ms)
		}
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["compile_s"] = median(sweeps)
	r.metrics["warm_ms"] = median(warm)
	r.metrics["alloc_mb"] = median(allocs)
	r.metrics["req_p50_ms"] = quantile(all, 0.5)
	r.metrics["req_p90_ms"] = quantile(all, 0.9)
	r.metrics["req_per_s"] = float64(len(res)) / elapsed
	r.note("%d clients, closed loop after %d warm-up requests: %d timed requests, %d of them repeat compiles; cache in the timed loop: %d disk hits, %d disk writes, %d evictions",
		runtime.NumCPU(), warmupReqs, len(res), len(warm), stats.DiskHits-before.DiskHits, stats.DiskWrites-before.DiskWrites, stats.MemEvictions-before.MemEvictions)
	r.note("cold sweeps of %d configs, s: %v", len(s.its), sweeps)
	r.countLoop(res)
	fps := map[string]ir.Fingerprint{}
	for _, p := range s.progs {
		irp, err := p.build()
		if err != nil {
			return err
		}
		fps[p.name] = irp.Fingerprint()
	}
	r.verifyWalk(s.progs, serviceCfgs(), fps)
	return nil
}
