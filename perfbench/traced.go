package main

// The traced run reports per-layer metrics. It times each layer from
// outside: the walk calls every layer's public function under a span,
// and the core, cas, request and server layers are timed around their
// public entry points. Nothing inside the program is instrumented.

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/ir"
)

// perLayer is the --trace 1 metric set, in print order.
var perLayer = []string{
	"parser.ms", "sema.ms", "lower.ms", "lower.ops",
	"decompose.ms", "decompose.ops",
	"flatten.ms", "flatten.alloc_mb", "flatten.inlined_calls",
	"resource.ms",
	"ir.materialize_ms", "ir.materialized_ops", "ir.alloc_mb",
	"dag.ms", "dag.nodes",
	"lpfs.ms", "lpfs.steps", "lpfs.alloc_mb",
	"rcp.ms", "rcp.steps",
	"comm.ms", "comm.alloc_mb", "comm.global_moves", "comm.local_moves",
	"verify.ms",
	"core.cold_eval_ms", "core.warm_eval_ms", "core.engine_other_ms", "core.layer_share",
	"core.pool_speedup", "core.comm_hit_ratio", "core.mem_evictions",
	"cas.disk_hit_ratio", "cas.disk_writes", "cas.disk_mb", "cas.disk_warm_eval_ms",
	"request.build_ms",
	"server.handler_p50_ms", "server.overhead_ms", "server.dedup_ratio", "server.rejected",
	"trace.overhead_ms",
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "ms"):
		return "ms"
	case strings.HasSuffix(name, "ratio"), strings.HasSuffix(name, "share"), strings.HasSuffix(name, "speedup"):
		return "ratio"
	}
	return "count"
}

// leafLayers are the layers core.EvaluateContext spends its leaf time
// in; what they do not cover is the engine's own time.
var leafLayers = []string{"resource", "ir", "dag", "lpfs", "rcp", "comm"}

// traced measures every layer on the workload's programs and configs.
// serviceMix replaces the server probe with the service workload's own
// closed loop.
func (r *run) traced(gen func() []*program, cfgs []evalCfg, serviceMix bool) error {
	progs := shuffled(gen(), r.seed)
	// Repeat the layer measurements for --seconds (at least once) and
	// report each metric's median. With the service mix, its closed loop
	// takes half of --seconds.
	passTime := r.seconds
	if serviceMix {
		passTime /= 2
	}
	var passes []map[string]float64
	var tr *tracer
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < passTime {
		m, t, err := r.tracedPass(progs, cfgs)
		if err != nil {
			return err
		}
		passes, tr = append(passes, m), t
	}
	for name := range passes[0] {
		var vs []float64
		for _, p := range passes {
			vs = append(vs, p[name])
		}
		r.metrics[name] = median(vs)
	}
	r.note("%d traced passes; median traced walk %.0f ms, of it verify %.0f ms and tracing %.0f ms",
		len(passes), r.metrics["walk_ms"], r.metrics["verify.ms"], r.metrics["trace.overhead_ms"])
	delete(r.metrics, "walk_ms")
	r.note("leaf layers cover %.3f of core.cold_eval_ms (median)", r.metrics["core.layer_share"])

	// request.Config.Build, once per item, then the server layer.
	its := items(progs, cfgs)
	var builds []float64
	for _, it := range its {
		t := time.Now()
		_, err := it.request().Build(nil)
		builds = append(builds, ms(time.Since(t)))
		r.check(err)
	}
	r.metrics["request.build_ms"] = median(builds)
	var err error
	if serviceMix {
		err = r.serverMix()
	} else {
		err = r.serverProbe(its)
	}
	if err != nil {
		return err
	}
	path := filepath.Join(filepath.Dir(r.scratch), fmt.Sprintf("spans-%s-seed%d.json", r.workload, r.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	r.note("%d spans of the last pass written to %s", len(tr.spans), path)
	return nil
}

// tracedPass measures the compile, core and cas layers once.
func (r *run) tracedPass(progs []*program, cfgs []evalCfg) (map[string]float64, *tracer, error) {
	ctx := context.Background()
	m := map[string]float64{}

	// 1. Build, evaluate cold at the default worker count, then warm on
	// that cache. This also warms the process up for what follows.
	var bs []built
	fps := map[string]ir.Fingerprint{}
	for _, p := range progs {
		irp, err := p.build()
		r.check(err)
		if err == nil {
			bs = append(bs, built{p, irp})
			fps[p.name] = irp.Fingerprint()
		}
	}
	caches := freshCaches(len(bs))
	own := func(i int) *core.EvalCache { return caches[i] }
	evalN := evalPass(r, ctx, bs, cfgs, 0, own)
	m["core.warm_eval_ms"] = evalPass(r, ctx, bs, cfgs, 0, own)

	// 2. The walk, untraced and then traced with verification: the
	// difference, verification aside, is the cost of tracing.
	t := time.Now()
	r.walkAll(newWalker(nil, false), progs, cfgs, fps)
	plainMS := ms(time.Since(t))
	tr := newTracer()
	w := newWalker(tr, true)
	t = time.Now()
	walked := r.walkAll(w, progs, cfgs, fps)
	walkMS := ms(time.Since(t))
	self := tr.selfMS()
	for _, l := range []string{"parser", "sema", "lower", "decompose", "flatten", "resource", "dag", "lpfs", "rcp", "comm", "verify"} {
		m[l+".ms"] = self[l]
	}
	m["ir.materialize_ms"] = self["ir"]
	for _, c := range []string{"lower.ops", "decompose.ops", "flatten.inlined_calls", "flatten.alloc_mb",
		"ir.materialized_ops", "ir.alloc_mb", "dag.nodes", "lpfs.steps", "lpfs.alloc_mb", "rcp.steps",
		"comm.alloc_mb", "comm.global_moves", "comm.local_moves"} {
		m[c] = w.counts[c]
	}
	m["trace.overhead_ms"] = walkMS - self["verify"] - plainMS
	m["walk_ms"] = walkMS
	// When no config schedules with rcp (the ladder, whose rcp comm
	// analysis alone would take minutes), time rcp scheduling of every
	// leaf at width k so the rcp layer is still measured.
	if !usesScheduler(cfgs, "rcp") {
		pw := newWalker(newTracer(), false)
		for _, irp := range walked {
			for _, c := range cfgs {
				r.check(pw.schedule(irp, "rcp", c.k))
			}
		}
		m["rcp.ms"] = pw.tr.selfMS()["rcp"]
		m["rcp.steps"] = pw.counts["rcp.steps"]
	}
	walked = nil

	// 3. Cold at one worker: the layers' self times should add up to it.
	caches = freshCaches(len(bs))
	eval1 := evalPass(r, ctx, bs, cfgs, 1, own)
	leafMS := 0.0
	for _, l := range leafLayers {
		leafMS += self[l]
	}
	m["core.cold_eval_ms"] = eval1
	var hits, lookups int64
	for _, c := range caches {
		st := c.Stats()
		hits += st.CommHits
		lookups += st.CommHits + st.CommMisses
	}
	m["core.comm_hit_ratio"] = float64(hits) / float64(max(lookups, 1))
	m["core.engine_other_ms"] = eval1 - leafMS
	m["core.layer_share"] = leafMS / eval1
	m["core.pool_speedup"] = eval1 / evalN
	caches = nil

	// 4. The cas layer: populate a disk-backed cache with the service's
	// memory bound, reopen it with cold memory and re-evaluate from disk.
	dir, err := r.scratchDir("cas-traced")
	if err != nil {
		return nil, nil, err
	}
	dc, err := core.OpenEvalCache(core.CacheConfig{Dir: dir, MemEntries: serviceMemEntries})
	if err != nil {
		return nil, nil, err
	}
	shared := func(int) *core.EvalCache { return dc }
	evalPass(r, ctx, bs, cfgs, 0, shared)
	st := dc.Stats()
	dc.Close()
	m["core.mem_evictions"] = float64(st.MemEvictions)
	m["cas.disk_writes"] = float64(st.DiskWrites)
	m["cas.disk_mb"] = float64(st.DiskBytes) / mb
	if dc, err = core.OpenEvalCache(core.CacheConfig{Dir: dir, MemEntries: serviceMemEntries}); err != nil {
		return nil, nil, err
	}
	m["cas.disk_warm_eval_ms"] = evalPass(r, ctx, bs, cfgs, 0, shared)
	st = dc.Stats()
	dc.Close()
	m["cas.disk_hit_ratio"] = float64(st.DiskHits) / float64(max(st.DiskHits+st.DiskMisses, 1))
	bs = nil
	runtime.GC()
	return m, tr, nil
}

// evalPass evaluates every built program under every config, program
// i on cacheOf(i), and returns the wall time in ms.
func evalPass(r *run, ctx context.Context, bs []built, cfgs []evalCfg, workers int, cacheOf func(i int) *core.EvalCache) float64 {
	t := time.Now()
	for i, b := range bs {
		for _, c := range cfgs {
			r.evalChecked(ctx, item{b.prog, c}, b.ir, workers, cacheOf(i))
		}
	}
	return ms(time.Since(t))
}

func usesScheduler(cfgs []evalCfg, name string) bool {
	for _, c := range cfgs {
		if c.sched == name {
			return true
		}
	}
	return false
}

func freshCaches(n int) []*core.EvalCache {
	out := make([]*core.EvalCache, n)
	for i := range out {
		out[i] = core.NewEvalCache()
	}
	return out
}

// serverProbe sends each item to an in-process server three times:
// twice at once while cold, so one request joins the other's flight,
// then once warm.
func (r *run) serverProbe(its []item) error {
	svc, err := startService("", 0)
	if err != nil {
		return err
	}
	var results []svcResult
	for _, it := range its {
		body, err := json.Marshal(it.request())
		if err != nil {
			svc.close()
			return err
		}
		var replies [3]svcResult
		var wg sync.WaitGroup
		for i := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				replies[i] = svc.send(svcReq{path: "/v1/compile"}, body)
			}()
		}
		wg.Wait()
		replies[2] = svc.send(svcReq{path: "/v1/compile"}, body)
		for _, x := range replies {
			r.checkReply(it.key(), x)
		}
		results = append(results, replies[:]...)
	}
	r.serverMetrics(svc, results)
	svc.close()
	return nil
}

// serverMix runs the service workload's closed loop, after its warm-up,
// for half of --seconds.
func (r *run) serverMix() error {
	s, err := r.setupService(r.drawRequests())
	if err != nil {
		return err
	}
	r.warmLoop(s)
	res := r.serviceLoop(s, r.seconds/2, 0)
	r.serverMetrics(s.svc, res)
	s.svc.close()
	r.countLoop(res)
	return nil
}

// serverMetrics pairs each request's client latency with the handler
// time the server wrapper saw for the same request id.
func (r *run) serverMetrics(svc *service, results []svcResult) {
	h := svc.handlerTimes()
	var handler, overhead []float64
	for _, x := range results {
		if d, ok := h[x.id]; ok {
			handler = append(handler, d)
			overhead = append(overhead, x.ms-d)
		}
	}
	evals := svc.counter("server.compile.requests") + svc.counter("server.verify.requests") + svc.counter("server.report.requests")
	r.metrics["server.handler_p50_ms"] = median(handler)
	r.metrics["server.overhead_ms"] = median(overhead)
	r.metrics["server.dedup_ratio"] = float64(svc.counter("server.deduped")) / float64(max(evals, 1))
	r.metrics["server.rejected"] = float64(svc.counter("server.rejected"))
}
