package main

// The walk drives one compile through the layers by calling each
// layer's public function directly, in the order core.Build and the
// evaluation engine call them, with the engine's cache semantics
// mirrored by in-memory sets. The benchmark uses it twice: traced, it
// times every layer call from outside the program; untraced, with
// verification on, it is the per-run legality check of every leaf.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/scaffold-go/multisimd/internal/ast"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/decompose"
	"github.com/scaffold-go/multisimd/internal/flatten"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/lower"
	"github.com/scaffold-go/multisimd/internal/parser"
	"github.com/scaffold-go/multisimd/internal/resource"
	"github.com/scaffold-go/multisimd/internal/schedule"
	"github.com/scaffold-go/multisimd/internal/sema"
	"github.com/scaffold-go/multisimd/internal/verify"
)

// materializeLimit is the engine's default leaf materialization bound
// (core.EvalOptions.MaterializeLimit = 0).
const materializeLimit = 4 << 20

// span is one timed layer call. Parent indexes the enclosing span in
// the tracer's list, -1 at the root.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Parent int     `json:"parent"`
}

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: ms(time.Since(t.t0)), Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = ms(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfMS sums each span name's self time: its duration minus the part
// its direct children cover.
func (t *tracer) selfMS() map[string]float64 {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type walkSchedKey struct {
	fp    ir.Fingerprint
	sched string
	w     int
}

type walkCommKey struct {
	walkSchedKey
	local int
}

// walker walks cold compiles: its sets play the part of a fresh
// EvalCache per program, shared by the program's evaluations.
type walker struct {
	tr     *tracer
	verify bool
	// counts holds per-layer work counts and, when tracing, allocated
	// MB per layer.
	counts map[string]float64
	cp     map[ir.Fingerprint]bool
	scheds map[walkSchedKey]*schedule.Schedule
	comms  map[walkCommKey]bool
	an     *comm.Analyzer
}

func newWalker(tr *tracer, verify bool) *walker {
	w := &walker{tr: tr, verify: verify, counts: map[string]float64{}, an: comm.NewAnalyzer()}
	w.freshCache()
	return w
}

// freshCache forgets every result, as a new EvalCache would.
func (w *walker) freshCache() {
	w.cp = map[ir.Fingerprint]bool{}
	w.scheds = map[walkSchedKey]*schedule.Schedule{}
	w.comms = map[walkCommKey]bool{}
}

// call runs f inside a span named layer and, when tracing, charges the
// bytes it allocates to layer.alloc_mb.
func (w *walker) call(layer string, f func() error) error {
	id := w.tr.begin(layer)
	var a0 uint64
	if w.tr != nil {
		a0 = allocBytes()
	}
	err := f()
	if w.tr != nil {
		w.counts[layer+".alloc_mb"] += float64(allocBytes()-a0) / mb
	}
	w.tr.end(id)
	return err
}

func opCount(p *ir.Program) float64 {
	n := 0
	for _, m := range p.Modules {
		n += len(m.Ops)
	}
	return float64(n)
}

// build is core.Build, layer by layer.
func (w *walker) build(p *program) (*ir.Program, error) {
	root := w.tr.begin("build")
	defer w.tr.end(root)
	o := p.pipe
	if o.AncillaReuse {
		return nil, fmt.Errorf("walk: %s: ancilla reuse is not walked", p.name)
	}
	entry := o.Entry
	if entry == "" {
		entry = "main"
	}
	var (
		a   *ast.Program
		out *ir.Program
	)
	err := w.call("parser", func() (err error) {
		a, err = parser.Parse(p.src)
		return err
	})
	if err == nil {
		err = w.call("sema", func() error { return sema.Check(a) })
	}
	if err == nil {
		err = w.call("lower", func() (err error) {
			out, err = lower.Lower(a, entry, lower.Options{UnrollLimit: o.UnrollLimit, MaxUnroll: o.MaxUnroll})
			return err
		})
	}
	if err != nil {
		return nil, fmt.Errorf("walk %s: %w", p.name, err)
	}
	w.counts["lower.ops"] += opCount(out)
	if !o.SkipDecompose {
		err := w.call("decompose", func() error {
			_, err := decompose.Program(out, decompose.Options{Epsilon: o.Epsilon, InlineRotations: o.InlineRotations, KeepToffoli: o.KeepToffoli})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("walk %s: %w", p.name, err)
		}
		w.counts["decompose.ops"] += opCount(out)
	}
	if !o.SkipFlatten {
		err := w.call("flatten", func() error {
			st, err := flatten.Program(out, flatten.Options{Threshold: o.FTh})
			if st != nil {
				w.counts["flatten.inlined_calls"] += float64(st.InlinedCallOps)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("walk %s: %w", p.name, err)
		}
	}
	return out, nil
}

// widthSet mirrors the engine's characterized widths: 1..min(k,8),
// powers of two beyond, and k itself.
func widthSet(k int) []int {
	var ws []int
	for w := 1; w <= k && w <= 8; w++ {
		ws = append(ws, w)
	}
	for w := 16; w < k; w *= 2 {
		ws = append(ws, w)
	}
	if k > 8 {
		ws = append(ws, k)
	}
	return ws
}

// leaf is one leaf module in an evaluation, materialized lazily.
type leaf struct {
	mod *ir.Module
	mat *ir.Module
	g   *dag.Graph
}

// graph materializes the leaf and builds its DAG once. traced charges
// the work to the ir and dag layers; otherwise it falls in the caller's
// span.
func (w *walker) graph(l *leaf, traced bool) (*ir.Module, *dag.Graph, error) {
	if l.g != nil {
		return l.mat, l.g, nil
	}
	materialize := func() (err error) {
		l.mat, err = l.mod.Materialize(materializeLimit)
		return err
	}
	build := func() (err error) {
		l.g, err = dag.Build(l.mat)
		return err
	}
	if !traced {
		err := materialize()
		if err == nil {
			err = build()
		}
		return l.mat, l.g, err
	}
	if err := w.call("ir", materialize); err != nil {
		return nil, nil, err
	}
	w.counts["ir.materialized_ops"] += float64(len(l.mat.Ops))
	if err := w.call("dag", build); err != nil {
		return nil, nil, err
	}
	w.counts["dag.nodes"] += float64(l.g.Len())
	return l.mat, l.g, nil
}

// eval is core.EvaluateContext's leaf work at one worker: resource
// estimation, then per leaf the critical path and, per width, schedule
// and comm analysis, skipping what a shared cache would serve.
func (w *walker) eval(p *ir.Program, cfg evalCfg) error {
	root := w.tr.begin("eval")
	defer w.tr.end(root)
	sched, err := core.SchedulerByName(cfg.sched)
	if err != nil {
		return err
	}
	copts := comm.Options{LocalCapacity: cfg.local}
	var order []string
	err = w.call("resource", func() error {
		est, err := resource.New(p)
		if err != nil {
			return err
		}
		if _, err := est.TotalGates(); err != nil {
			return err
		}
		if _, err := est.MinQubits(); err != nil {
			return err
		}
		order = est.Reachable()
		return nil
	})
	if err != nil {
		return err
	}
	widths := widthSet(cfg.k)
	for _, name := range order {
		mod := p.Modules[name]
		if !mod.IsLeaf() {
			continue
		}
		l := &leaf{mod: mod}
		fp := mod.Fingerprint()
		if !w.cp[fp] {
			if _, _, err := w.graph(l, true); err != nil {
				return fmt.Errorf("leaf %s: %w", name, err)
			}
			_ = w.call("dag", func() error { l.g.CriticalPath(); return nil })
			w.cp[fp] = true
		}
		for _, wd := range widths {
			sk := walkSchedKey{fp: fp, sched: cfg.sched, w: wd}
			ck := walkCommKey{walkSchedKey: sk, local: cfg.local}
			if w.comms[ck] {
				continue
			}
			s := w.scheds[sk]
			if s == nil {
				mat, g, err := w.graph(l, true)
				if err != nil {
					return fmt.Errorf("leaf %s: %w", name, err)
				}
				err = w.call(cfg.sched, func() error {
					var err error
					s, err = sched.Schedule(mat, g, wd, 0)
					return err
				})
				if err != nil {
					return fmt.Errorf("leaf %s width %d: %w", name, wd, err)
				}
				w.counts[cfg.sched+".steps"] += float64(len(s.Steps))
				w.scheds[sk] = s
			}
			var res *comm.Result
			err := w.call("comm", func() error {
				var err error
				res, err = w.an.Analyze(s, copts)
				return err
			})
			if err != nil {
				return fmt.Errorf("leaf %s width %d: %w", name, wd, err)
			}
			w.counts["comm.global_moves"] += float64(res.GlobalMoves)
			w.counts["comm.local_moves"] += float64(res.LocalMoves)
			if w.verify {
				id := w.tr.begin("verify")
				_, g, err := w.graph(l, false)
				if err == nil {
					err = verify.Full(s, g, res, copts)
				}
				w.tr.end(id)
				if err != nil {
					return fmt.Errorf("verify leaf %s width %d: %w", name, wd, err)
				}
				w.counts["verify.points"]++
			}
			w.comms[ck] = true
		}
	}
	return nil
}

// schedule times sched on every distinct leaf of p at width k alone,
// materializing each leaf outside the spans.
func (w *walker) schedule(p *ir.Program, sched string, k int) error {
	s, err := core.SchedulerByName(sched)
	if err != nil {
		return err
	}
	order, err := p.Topo()
	if err != nil {
		return err
	}
	seen := map[ir.Fingerprint]bool{}
	for _, name := range order {
		mod := p.Modules[name]
		if !mod.IsLeaf() || seen[mod.Fingerprint()] {
			continue
		}
		seen[mod.Fingerprint()] = true
		mat, g, err := w.graph(&leaf{mod: mod}, false)
		if err != nil {
			return fmt.Errorf("leaf %s: %w", name, err)
		}
		err = w.call(sched, func() error {
			out, err := s.Schedule(mat, g, k, 0)
			if err == nil {
				w.counts[sched+".steps"] += float64(len(out.Steps))
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("leaf %s: %w", name, err)
		}
	}
	return nil
}

// walkAll builds every program layer by layer and evaluates it under
// every config, counting each step as a checked operation. It returns
// the built programs. When want is non-nil each build must have the
// fingerprint core.Build gave the same program.
func (r *run) walkAll(w *walker, progs []*program, cfgs []evalCfg, want map[string]ir.Fingerprint) []*ir.Program {
	var out []*ir.Program
	for _, p := range progs {
		w.freshCache()
		irp, err := w.build(p)
		if err == nil && want != nil && irp.Fingerprint() != want[p.name] {
			err = fmt.Errorf("%s: layer-by-layer build differs from core.Build", p.name)
		}
		r.check(err)
		if err != nil {
			continue
		}
		out = append(out, irp)
		for _, c := range cfgs {
			r.check(w.eval(irp, c))
		}
	}
	return out
}
