// Package multisimd's benchmark harness regenerates every table and
// figure of the paper's evaluation as testing.B benchmarks (the cmd/qbench
// tool prints the same data as human-readable tables):
//
//	BenchmarkFig5Histogram    — module gate-count histograms + FTh
//	BenchmarkFig6Parallelism  — RCP/LPFS speedup vs sequential, k=2,4
//	BenchmarkFig7CommAware    — speedup vs naive movement, k=2,4
//	BenchmarkFig8LocalMemory  — scratchpad capacity sweep at k=4
//	BenchmarkFig9ShorsK       — Shor's k-sensitivity with local memory
//	BenchmarkTable1MinQubits  — Q per benchmark
//	BenchmarkTable2Rotations  — parallel-rotation serialization vs k
//
// Speedups are attached to the benchmark output via ReportMetric, so
// `go test -bench . -benchmem` prints the paper's series alongside the
// harness's own runtime costs.
package multisimd

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/rcp"
	"github.com/scaffold-go/multisimd/internal/resource"
	"github.com/scaffold-go/multisimd/internal/sim"
)

const benchFTh = 2000

var (
	workloadOnce     sync.Once
	workloadFlat     []bench.Workload
	workloadUnflat   []bench.Workload
	workloadBuildErr error
)

func workloads(b *testing.B) (flat, unflat []bench.Workload) {
	workloadOnce.Do(func() {
		for _, w := range bench.AllSmall() {
			opts := w.Pipeline
			opts.FTh = benchFTh
			p, err := core.Build(w.Source, opts)
			if err != nil {
				workloadBuildErr = fmt.Errorf("%s: %w", w.Name, err)
				return
			}
			workloadFlat = append(workloadFlat, bench.Workload{Name: w.Name, Params: w.Params, Prog: p})
			opts.SkipFlatten = true
			u, err := core.Build(w.Source, opts)
			if err != nil {
				workloadBuildErr = fmt.Errorf("%s: %w", w.Name, err)
				return
			}
			workloadUnflat = append(workloadUnflat, bench.Workload{Name: w.Name, Params: w.Params, Prog: u})
		}
	})
	if workloadBuildErr != nil {
		b.Fatal(workloadBuildErr)
	}
	return workloadFlat, workloadUnflat
}

func metricName(parts ...string) string { return strings.Join(parts, "_") }

// BenchmarkFig5Histogram regenerates Fig. 5: the percentage of modules
// per gate-count bucket and the fraction flattenable at FTh.
func BenchmarkFig5Histogram(b *testing.B) {
	_, unflat := workloads(b)
	var rows []bench.Fig5Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.Fig5(unflat, benchFTh)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.FlattenedPct, metricName(r.Name, "flattenable_pct"))
	}
}

// runSweep runs vs over ws b.N times and returns the last results.
func runSweep(b *testing.B, ws []bench.Workload, vs []bench.Variant) [][]*core.Metrics {
	var res [][]*core.Metrics
	var err error
	for i := 0; i < b.N; i++ {
		res, err = bench.Sweep(ws, vs)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// reportSweep attaches metric of every evaluation, named after its
// workload (when prefix is set) and variant label.
func reportSweep(b *testing.B, ws []bench.Workload, vs []bench.Variant, res [][]*core.Metrics,
	prefix bool, metric func(*core.Metrics) float64) {
	for i, w := range ws {
		for j, v := range vs {
			name := metricName(sanitize(v.Label), "x")
			if prefix {
				name = metricName(w.Name, name)
			}
			b.ReportMetric(metric(res[i][j]), name)
		}
	}
}

// BenchmarkFig6Parallelism regenerates Fig. 6 for every benchmark.
func BenchmarkFig6Parallelism(b *testing.B) {
	flat, _ := workloads(b)
	for _, w := range flat {
		ws := []bench.Workload{w}
		b.Run(w.Name, func(b *testing.B) {
			res := runSweep(b, ws, bench.PaperVariants)
			reportSweep(b, ws, bench.PaperVariants, res, false, (*core.Metrics).SpeedupVsSeq)
			b.ReportMetric(res[0][3].CPSpeedup(), "cp_x")
		})
	}
}

// BenchmarkFig7CommAware regenerates Fig. 7 for every benchmark.
func BenchmarkFig7CommAware(b *testing.B) {
	flat, _ := workloads(b)
	for _, w := range flat {
		ws := []bench.Workload{w}
		b.Run(w.Name, func(b *testing.B) {
			res := runSweep(b, ws, bench.PaperVariants)
			reportSweep(b, ws, bench.PaperVariants, res, false, (*core.Metrics).SpeedupVsNaive)
		})
	}
}

// BenchmarkFig8LocalMemory regenerates Fig. 8: the scratchpad sweep on
// Multi-SIMD(4, inf).
func BenchmarkFig8LocalMemory(b *testing.B) {
	flat, _ := workloads(b)
	for _, w := range flat {
		ws := []bench.Workload{w}
		b.Run(w.Name, func(b *testing.B) {
			q, err := bench.MinQubits(w.Prog)
			if err != nil {
				b.Fatal(err)
			}
			vs := bench.Fig8Variants(q)
			reportSweep(b, ws, vs, runSweep(b, ws, vs), false, (*core.Metrics).SpeedupVsNaive)
		})
	}
}

// BenchmarkFig9ShorsK regenerates Fig. 9: Shor's speedup as k grows,
// with unlimited local memory.
func BenchmarkFig9ShorsK(b *testing.B) {
	sb := bench.ShorsSized(4, 16)
	opts := sb.Pipeline
	opts.FTh = benchFTh
	p, err := core.Build(sb.Source, opts)
	if err != nil {
		b.Fatal(err)
	}
	ws := []bench.Workload{{Name: sb.Name, Params: sb.Params, Prog: p}}
	vs := bench.Fig9Variants()
	reportSweep(b, ws, vs, runSweep(b, ws, vs), false, (*core.Metrics).SpeedupVsNaive)
}

// BenchmarkTable1MinQubits regenerates Table 1: Q per benchmark.
func BenchmarkTable1MinQubits(b *testing.B) {
	_, unflat := workloads(b)
	qs := make([]int64, len(unflat))
	for i := 0; i < b.N; i++ {
		for j, w := range unflat {
			q, err := bench.MinQubits(w.Prog)
			if err != nil {
				b.Fatal(err)
			}
			qs[j] = q
		}
	}
	for j, w := range unflat {
		b.ReportMetric(float64(qs[j]), metricName(w.Name, "Q"))
	}
}

// BenchmarkTable2Rotations regenerates Table 2: n data-parallel
// rotations serialize after decomposition unless k grows.
func BenchmarkTable2Rotations(b *testing.B) {
	ks := []int{1, 2, 4, 8}
	var steps []int64
	var err error
	for i := 0; i < b.N; i++ {
		steps, err = bench.Table2(8, ks)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, k := range ks {
		b.ReportMetric(float64(steps[i]), fmt.Sprintf("steps_k%d", k))
	}
}

// --- Evaluation-engine benchmarks: worker pool and cache. ---

// engineSweep runs one experiment sweep with the given worker count and
// cache temperature. Cold runs leave Workload.Cache nil, the seed
// behavior (each Evaluate dedupes internally but shares nothing); warm
// runs pre-populate one shared cache before the timer starts.
func engineSweep(b *testing.B, workers int, warm bool, sweep func([]bench.Workload) error) {
	flat, _ := workloads(b)
	ws := make([]bench.Workload, len(flat))
	copy(ws, flat)
	for j := range ws {
		ws[j].Workers = workers
	}
	if warm {
		cache := core.NewEvalCache()
		for j := range ws {
			ws[j].Cache = cache
		}
		if err := sweep(ws); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sweep(ws); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkEngineFig6 measures the fig6 sweep (both schedulers, k=2,4,
// all benchmarks) serial vs 8-worker pool vs warm-cache. The pool's
// wall-clock win scales with available cores (workers_8 on a single-CPU
// host measures only the pool's overhead — GOMAXPROCS is reported so
// results read correctly either way); the cache win is core-independent.
func BenchmarkEngineFig6(b *testing.B) {
	sweep := func(ws []bench.Workload) error { _, err := bench.Sweep(ws, bench.PaperVariants); return err }
	b.Run("serial_cold", func(b *testing.B) { engineSweep(b, 1, false, sweep) })
	b.Run("workers8_cold", func(b *testing.B) { engineSweep(b, 8, false, sweep) })
	b.Run("workers8_warm", func(b *testing.B) { engineSweep(b, 8, true, sweep) })
}

// BenchmarkEngineFig8 measures the fig8 local-memory sweep (8 configs
// per benchmark sharing 2 schedule sets) serial vs 8-worker pool vs
// warm-cache.
func BenchmarkEngineFig8(b *testing.B) {
	sweep := func(ws []bench.Workload) error {
		for _, w := range ws {
			q, err := bench.MinQubits(w.Prog)
			if err != nil {
				return err
			}
			if _, err := bench.Sweep([]bench.Workload{w}, bench.Fig8Variants(q)); err != nil {
				return err
			}
		}
		return nil
	}
	b.Run("serial_cold", func(b *testing.B) { engineSweep(b, 1, false, sweep) })
	b.Run("workers8_cold", func(b *testing.B) { engineSweep(b, 8, false, sweep) })
	b.Run("workers8_warm", func(b *testing.B) { engineSweep(b, 8, true, sweep) })
}

// --- Toolflow micro-benchmarks: the compiler itself under load. ---

// BenchmarkCompileSHA1 measures the full pipeline on the scaled SHA-1.
func BenchmarkCompileSHA1(b *testing.B) {
	src := bench.SHA1Sized(6, 8, 8, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := src.Pipeline
		opts.FTh = benchFTh
		if _, err := core.Build(src.Source, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRCPScheduler and BenchmarkLPFSScheduler measure fine-grained
// scheduling of one materialized SHA-1 leaf.
func schedulerLeaf(b *testing.B) (*dag.Graph, func()) {
	flat, _ := workloads(b)
	var prog = flat[5].Prog // SHA-1
	est, err := resource.New(prog)
	if err != nil {
		b.Fatal(err)
	}
	var biggest string
	var size int64
	for _, name := range est.Reachable() {
		m := prog.Modules[name]
		if m.IsLeaf() {
			if s := m.MaterializedSize(); s > size {
				size, biggest = s, name
			}
		}
	}
	mat, err := prog.Modules[biggest].Materialize(1 << 22)
	if err != nil {
		b.Fatal(err)
	}
	g, err := dag.Build(mat)
	if err != nil {
		b.Fatal(err)
	}
	return g, func() { b.SetBytes(size) }
}

func BenchmarkRCPScheduler(b *testing.B) {
	g, _ := schedulerLeaf(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rcp.Schedule(g.M, g, rcp.Options{K: 4}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.Len()), "leaf_ops")
}

func BenchmarkLPFSScheduler(b *testing.B) {
	g, _ := schedulerLeaf(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lpfs.Schedule(g.M, g, lpfs.Options{K: 4}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.Len()), "leaf_ops")
}

// BenchmarkCommAnalysis measures the movement pass over an LPFS schedule.
func BenchmarkCommAnalysis(b *testing.B) {
	g, _ := schedulerLeaf(b)
	s, err := lpfs.Schedule(g.M, g, lpfs.Options{K: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comm.Analyze(s, comm.Options{LocalCapacity: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures state-vector gate throughput at 16 qubits.
func BenchmarkSimulator(b *testing.B) {
	st, err := sim.NewState(16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Apply(2 /* Z */, 0, i%16); err != nil {
			b.Fatal(err)
		}
		if err := st.Apply(10 /* CNOT */, 0, i%16, (i+1)%16); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extended studies (DESIGN.md: sens-d, sens-epr, ablation, fth). ---

// BenchmarkSensD reproduces §5.4's claim that d below 32 causes only
// marginal changes.
func BenchmarkSensD(b *testing.B) {
	flat, _ := workloads(b)
	vs := bench.DVariants(core.LPFS, []int{2, 8, 32, 0})
	reportSweep(b, flat, vs, runSweep(b, flat, vs), true, (*core.Metrics).SpeedupVsNaive)
}

// BenchmarkSensEPR sweeps the EPR distribution bandwidth (§2.3).
func BenchmarkSensEPR(b *testing.B) {
	flat, _ := workloads(b)
	vs := bench.EPRVariants(core.LPFS, []int{1, 4, 0})
	reportSweep(b, flat, vs, runSweep(b, flat, vs), true, (*core.Metrics).SpeedupVsNaive)
}

// BenchmarkAblationLPFS compares LPFS option settings (§4.2).
func BenchmarkAblationLPFS(b *testing.B) {
	flat, _ := workloads(b)
	reportSweep(b, flat, bench.LPFSAblation, runSweep(b, flat, bench.LPFSAblation), true, (*core.Metrics).SpeedupVsNaive)
}

// BenchmarkAblationRCP compares RCP weight settings (§4.1).
func BenchmarkAblationRCP(b *testing.B) {
	flat, _ := workloads(b)
	reportSweep(b, flat, bench.RCPAblation, runSweep(b, flat, bench.RCPAblation), true, (*core.Metrics).SpeedupVsNaive)
}

// BenchmarkAblationComm compares the masked (§2.3) and strict (§4.4)
// movement accountings.
func BenchmarkAblationComm(b *testing.B) {
	flat, _ := workloads(b)
	vs := bench.CommAblation(core.LPFS)
	reportSweep(b, flat, vs, runSweep(b, flat, vs), true, (*core.Metrics).SpeedupVsNaive)
}

// BenchmarkSweepFTh measures schedule quality across flattening
// thresholds (§3.1.1).
func BenchmarkSweepFTh(b *testing.B) {
	var rows []bench.FThRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.SweepFTh(bench.AllSmall(), core.LPFS, 4, []int64{100, 2000, 50000})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Speedup, metricName(r.Name, fmt.Sprintf("fth%d", r.FTh), "x"))
	}
}

// sanitize turns a variant label into a metric-name fragment.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '(', ')', '+':
			return '_'
		case '=', '/':
			return -1
		}
		return r
	}, s)
}
