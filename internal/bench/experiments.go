package bench

import (
	"fmt"
	"strings"
	"time"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/flatten"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/rcp"
	"github.com/scaffold-go/multisimd/internal/resource"
)

// Workload names one compiled benchmark instance handed to the
// experiment sweeps: its program plus identity strings for the reports.
type Workload struct {
	Name   string
	Params string
	Prog   *ir.Program

	// Cache, when non-nil, memoizes leaf characterizations across every
	// Evaluate run for this workload, so sweeps that revisit a
	// (scheduler, k, d) configuration reuse its schedules and only
	// re-run comm.Analyze when movement options change (fig7 after fig6
	// is fully warm; fig8's capacity sweep re-analyzes one schedule).
	Cache *core.EvalCache
	// Workers overrides the engine's leaf-characterization concurrency
	// (0 = GOMAXPROCS, 1 = serial). Results are identical either way.
	Workers int
	// Obs, when non-nil, instruments every Evaluate run for this
	// workload (spans + metrics; see EvalOptions.Obs).
	Obs *obs.Observer
}

// Variant is one configuration an experiment evaluates: a label for the
// reports and the evaluation options it runs.
type Variant struct {
	Label string
	Opts  core.EvalOptions
}

// Sweep evaluates every workload under every variant; the result is
// indexed [workload][variant]. Each workload's Cache, Workers and Obs
// are stamped onto the variant's options.
func Sweep(ws []Workload, vs []Variant) ([][]*core.Metrics, error) {
	res := make([][]*core.Metrics, len(ws))
	for i, w := range ws {
		res[i] = make([]*core.Metrics, len(vs))
		for j, v := range vs {
			opts := v.Opts
			opts.Cache, opts.Workers, opts.Obs = w.Cache, w.Workers, w.Obs
			m, err := core.Evaluate(w.Prog, opts)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", w.Name, v.Label, err)
			}
			res[i][j] = m
		}
	}
	return res, nil
}

// unlimitedLocal is the Fig. 8 "Inf" scratchpad setting.
var unlimitedLocal = comm.Options{LocalCapacity: -1}

// PaperVariants runs both schedulers at k = 2 and 4 with the default
// movement model: Fig. 6 reads their speedup over sequential execution
// (and the critical-path bound of lpfs k=4), Fig. 7 their speedup over
// naive movement.
var PaperVariants = []Variant{
	{"rcp k=2", core.EvalOptions{Scheduler: core.RCP, K: 2}},
	{"rcp k=4", core.EvalOptions{Scheduler: core.RCP, K: 4}},
	{"lpfs k=2", core.EvalOptions{Scheduler: core.LPFS, K: 2}},
	{"lpfs k=4", core.EvalOptions{Scheduler: core.LPFS, K: 4}},
}

// Fig8Variants is the local-memory study on Multi-SIMD(4,∞) (paper
// Fig. 8) for a program of q qubits: no local memory, Q/4, Q/2 and
// unlimited scratchpads, RCP first, then LPFS.
func Fig8Variants(q int64) []Variant {
	var vs []Variant
	for _, s := range []core.Scheduler{core.RCP, core.LPFS} {
		for _, c := range []struct {
			label string
			cap   int
		}{{"none", 0}, {"Q/4", int(q / 4)}, {"Q/2", int(q / 2)}, {"inf", -1}} {
			vs = append(vs, Variant{s.Name() + " " + c.label,
				core.EvalOptions{Scheduler: s, K: 4, Comm: comm.Options{LocalCapacity: c.cap}}})
		}
	}
	return vs
}

// Fig9Ks are the swept region counts. The paper sweeps {8, 16, 32, 128}
// on a 512-bit Shor's whose half-million rotation blackboxes saturate
// hundreds of regions; the scaled-down workload's inverse QFT offers
// proportionally less operation-level parallelism, so the sweep starts
// lower to expose the same rising-then-saturating shape.
var Fig9Ks = []int{2, 4, 8, 16, 32}

// Fig9Variants is Shor's k-sensitivity (paper Fig. 9): both schedulers
// over Fig9Ks with unlimited local memory.
func Fig9Variants() []Variant {
	var vs []Variant
	for _, s := range []core.Scheduler{core.RCP, core.LPFS} {
		for _, k := range Fig9Ks {
			vs = append(vs, Variant{fmt.Sprintf("%s k=%d", s.Name(), k),
				core.EvalOptions{Scheduler: s, K: k, Comm: unlimitedLocal}})
		}
	}
	return vs
}

// DVariants sweeps the per-region data parallelism d (0 = unlimited) at
// k = 4 with unlimited local memory (§5.4: "decreasing [d] to below 32
// qubits only causes marginal changes").
func DVariants(sched core.Scheduler, ds []int) []Variant {
	vs := make([]Variant, len(ds))
	for i, d := range ds {
		vs[i] = Variant{"d=" + unlimitedLabel(d),
			core.EvalOptions{Scheduler: sched, K: 4, D: d, Comm: unlimitedLocal}}
	}
	return vs
}

// EPRVariants sweeps the EPR distribution bandwidth in teleports per
// boundary (0 = unlimited) at k = 4 (§2.3: finite distribution channels
// serialize teleport bursts).
func EPRVariants(sched core.Scheduler, bws []int) []Variant {
	vs := make([]Variant, len(bws))
	for i, bw := range bws {
		vs[i] = Variant{"bw=" + unlimitedLabel(bw),
			core.EvalOptions{Scheduler: sched, K: 4, Comm: comm.Options{EPRBandwidth: bw}}}
	}
	return vs
}

func unlimitedLabel(n int) string {
	if n == 0 {
		return "inf"
	}
	return fmt.Sprint(n)
}

// LPFSAblation compares LPFS option settings at k = 4 with unlimited
// local memory (§4.2: the paper runs l = 1 with SIMD and Refill enabled).
var LPFSAblation = []Variant{
	{"simd+refill", core.EvalOptions{Scheduler: core.LPFS, K: 4, Comm: unlimitedLocal}},
	{"simd only", core.EvalOptions{Scheduler: lpfs.New(lpfs.Options{SIMD: true}), K: 4, Comm: unlimitedLocal}},
	{"refill only", core.EvalOptions{Scheduler: lpfs.New(lpfs.Options{Refill: true}), K: 4, Comm: unlimitedLocal}},
	{"neither", core.EvalOptions{Scheduler: lpfs.New(lpfs.Options{NoOptions: true}), K: 4, Comm: unlimitedLocal}},
	{"l=2", core.EvalOptions{Scheduler: lpfs.New(lpfs.Options{L: 2, SIMD: true, Refill: true}), K: 4, Comm: unlimitedLocal}},
}

// RCPAblation compares RCP weight settings at k = 4 with unlimited
// local memory (§4.1: w_op groups for data parallelism, w_dist captures
// locality, w_slack defers slack ops).
var RCPAblation = []Variant{
	{"all weights", core.EvalOptions{Scheduler: rcp.New(rcp.Options{WOp: 1, WDist: 1, WSlack: 1, ExplicitWeights: true}), K: 4, Comm: unlimitedLocal}},
	{"no locality", core.EvalOptions{Scheduler: rcp.New(rcp.Options{WOp: 1, WSlack: 1, ExplicitWeights: true}), K: 4, Comm: unlimitedLocal}},
	{"no slack", core.EvalOptions{Scheduler: rcp.New(rcp.Options{WOp: 1, WDist: 1, ExplicitWeights: true}), K: 4, Comm: unlimitedLocal}},
	{"prevalence only", core.EvalOptions{Scheduler: rcp.New(rcp.Options{WOp: 1, ExplicitWeights: true}), K: 4, Comm: unlimitedLocal}},
}

// CommAblation compares the teleport-masking movement model (§2.3)
// against the strict per-boundary accounting (§4.4) at k = 4.
func CommAblation(sched core.Scheduler) []Variant {
	return []Variant{
		{"masked (pipelined QT)", core.EvalOptions{Scheduler: sched, K: 4}},
		{"strict (no overlap)", core.EvalOptions{Scheduler: sched, K: 4, Comm: comm.Options{NoOverlap: true}}},
	}
}

// MinQubits is a program's minimum qubit count Q (paper Table 1).
func MinQubits(p *ir.Program) (int64, error) {
	est, err := resource.New(p)
	if err != nil {
		return 0, err
	}
	return est.MinQubits()
}

// Fig5Row is one benchmark's module gate-count histogram (paper Fig. 5).
type Fig5Row struct {
	Name    string
	Params  string
	Percent []float64 // aligned with resource.Fig5Buckets
	// FlattenedPct is the percentage of modules at or under the FTh used.
	FlattenedPct float64
	FTh          int64
}

// Fig5 computes the histogram of module gate counts for each workload.
// The workloads should be compiled *without* the flattening pass (the
// figure characterizes the initial modularity used to choose FTh).
func Fig5(ws []Workload, fth int64) ([]Fig5Row, error) {
	if fth == 0 {
		fth = flatten.DefaultThreshold
	}
	rows := make([]Fig5Row, 0, len(ws))
	for _, w := range ws {
		est, err := resource.New(w.Prog)
		if err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", w.Name, err)
		}
		pct, err := est.Histogram()
		if err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", w.Name, err)
		}
		fp, err := est.FlattenableFraction(fth)
		if err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", w.Name, err)
		}
		rows = append(rows, Fig5Row{Name: w.Name, Params: w.Params, Percent: pct, FlattenedPct: fp, FTh: fth})
	}
	return rows, nil
}

// Table2 demonstrates the paper's Table 2: n parallel rotations on
// distinct qubits cannot share a SIMD region once decomposed, so their
// schedule serializes unless k grows to accommodate them. It builds n
// data-parallel Rz gates with distinct angles and returns the zero-comm
// LPFS schedule length at each k, aligned with ks.
func Table2(n int, ks []int) ([]int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module main() {\n  qbit q[%d];\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  Rz(q[%d], %g);\n", i, 0.1+0.71*float64(i))
	}
	sb.WriteString("}\n")
	prog, err := core.Build(sb.String(), core.PipelineOptions{})
	if err != nil {
		return nil, err
	}
	steps := make([]int64, len(ks))
	cache := core.NewEvalCache() // the k sweep shares every width below max(ks)
	for i, k := range ks {
		m, err := core.Evaluate(prog, core.EvalOptions{Scheduler: core.LPFS, K: k, Cache: cache})
		if err != nil {
			return nil, err
		}
		steps[i] = m.ZeroCommSteps
	}
	return steps, nil
}

// FThRow is one point of the flattening-threshold study (§3.1.1).
type FThRow struct {
	Name    string
	FTh     int64
	Leaves  int
	Modules int
	Speedup float64
	// AnalysisMS is the wall-clock cost of compiling and scheduling at
	// this threshold — the other side of the paper's FTh trade-off
	// ("when leaf modules are too large the scheduling time becomes
	// unacceptably long").
	AnalysisMS int64
}

// SweepFTh rebuilds each benchmark's source at several thresholds and
// measures the resulting schedule quality — the paper's motivation for
// picking FTh = 2M: too little flattening loses parallelism at module
// boundaries (Fig. 4), too much blows up scheduling time.
func SweepFTh(bs []Benchmark, sched core.Scheduler, k int, fths []int64) ([]FThRow, error) {
	var rows []FThRow
	for _, b := range bs {
		for _, fth := range fths {
			opts := b.Pipeline
			opts.FTh = fth
			start := time.Now()
			prog, err := core.Build(b.Source, opts)
			if err != nil {
				return nil, fmt.Errorf("fth %s %d: %w", b.Name, fth, err)
			}
			m, err := core.Evaluate(prog, core.EvalOptions{Scheduler: sched, K: k, Comm: unlimitedLocal})
			if err != nil {
				return nil, fmt.Errorf("fth %s %d: %w", b.Name, fth, err)
			}
			rows = append(rows, FThRow{
				Name: b.Name, FTh: fth,
				Leaves: m.Leaves, Modules: m.Modules,
				Speedup:    m.SpeedupVsNaive(),
				AnalysisMS: time.Since(start).Milliseconds(),
			})
		}
	}
	return rows, nil
}
