package bench_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/core"
)

// update rewrites the golden metric snapshots instead of comparing:
//
//	go test ./internal/bench -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden snapshots")

// goldenWorkloads compiles the small benchmarks as experiment
// workloads, each with its own cache.
func goldenWorkloads(t *testing.T) []bench.Workload {
	t.Helper()
	var ws []bench.Workload
	for _, b := range bench.AllSmall() {
		opts := b.Pipeline
		opts.FTh = 2000
		p, err := core.Build(b.Source, opts)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		ws = append(ws, bench.Workload{Name: b.Name, Params: b.Params, Prog: p, Cache: core.NewEvalCache()})
	}
	return ws
}

// checkGolden compares got against testdata/golden/<name>, or rewrites
// the snapshot under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the snapshot)", err)
	}
	if string(want) != got {
		t.Errorf("%s drifted from golden snapshot (run with -update if intended):\n--- want\n%s--- got\n%s",
			name, want, got)
	}
}

// TestGoldenFig6 snapshots the parallelism-only speedups (paper Fig. 6)
// for every small benchmark. Schedulers and the evaluation engine are
// deterministic, so any drift is a behavior change — intended changes
// re-baseline with -update.
func TestGoldenFig6(t *testing.T) {
	ws := goldenWorkloads(t)
	res, err := bench.Sweep(ws, bench.PaperVariants)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("name\tparams\trcp2\trcp4\tlpfs2\tlpfs4\tcp\n")
	for i, w := range ws {
		fmt.Fprintf(&sb, "%s\t%s", w.Name, w.Params)
		for _, m := range res[i] {
			fmt.Fprintf(&sb, "\t%.4f", m.SpeedupVsSeq())
		}
		fmt.Fprintf(&sb, "\t%.4f\n", res[i][3].CPSpeedup())
	}
	checkGolden(t, "fig6.tsv", sb.String())
}

// TestGoldenFig8 snapshots the local-memory study (paper Fig. 8).
func TestGoldenFig8(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("name\tparams\tq\trcp_none\trcp_q4\trcp_q2\trcp_inf\tlpfs_none\tlpfs_q4\tlpfs_q2\tlpfs_inf\n")
	for _, w := range goldenWorkloads(t) {
		q, err := bench.MinQubits(w.Prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := bench.Sweep([]bench.Workload{w}, bench.Fig8Variants(q))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s\t%s\t%d", w.Name, w.Params, q)
		for _, m := range res[0] {
			fmt.Fprintf(&sb, "\t%.4f", m.SpeedupVsNaive())
		}
		sb.WriteByte('\n')
	}
	checkGolden(t, "fig8.tsv", sb.String())
}

const toySource = `
module inner(qbit x[2]) {
  H(x[0]);
  CNOT(x[0], x[1]);
  T(x[1]);
}
module main() {
  qbit q[4];
  inner(q[0:2]);
  inner(q[2:4]);
  for (i = 0; i < 100; i++) {
    inner(q[0:2]);
  }
}
`

func toyWorkloads(t *testing.T) []bench.Workload {
	t.Helper()
	p, err := core.Build(toySource, core.PipelineOptions{FTh: 50})
	if err != nil {
		t.Fatal(err)
	}
	return []bench.Workload{{Name: "toy", Params: "-", Prog: p}}
}

// speedups reads SpeedupVsNaive off the one workload of a toy sweep.
func speedups(t *testing.T, ws []bench.Workload, vs []bench.Variant) []float64 {
	t.Helper()
	res, err := bench.Sweep(ws, vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0]) != len(vs) {
		t.Fatalf("sweep shape: %d workloads", len(res))
	}
	out := make([]float64, len(vs))
	for j, m := range res[0] {
		out[j] = m.SpeedupVsNaive()
	}
	return out
}

func TestExperimentDriversRunOnToy(t *testing.T) {
	ws := toyWorkloads(t)
	unflat, err := core.Build(toySource, core.PipelineOptions{SkipFlatten: true})
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := bench.Fig5([]bench.Workload{{Name: "toy", Params: "-", Prog: unflat}}, 1000); err != nil || len(rows) != 1 {
		t.Errorf("fig5: %v", err)
	}
	if res, err := bench.Sweep(ws, bench.PaperVariants); err != nil || len(res) != 1 {
		t.Errorf("fig6/fig7: %v", err)
	} else if res[0][1].SpeedupVsSeq() <= 0 || res[0][3].CPSpeedup() <= 0 {
		t.Errorf("fig6 row: rcp k=4 %v, cp %v", res[0][1].SpeedupVsSeq(), res[0][3].CPSpeedup())
	} else if res[0][3].SpeedupVsNaive() <= 0 {
		t.Errorf("fig7 row: lpfs k=4 %v", res[0][3].SpeedupVsNaive())
	}
	q, err := bench.MinQubits(ws[0].Prog)
	if err != nil || q <= 0 {
		t.Fatalf("table1: Q=%d, %v", q, err)
	}
	fig8 := speedups(t, ws, bench.Fig8Variants(q))
	if lpfsInf, lpfsNone := fig8[7], fig8[4]; lpfsInf < lpfsNone {
		t.Errorf("fig8: infinite local memory hurt: %v < %v", lpfsInf, lpfsNone)
	}
	if res, err := bench.Sweep([]bench.Workload{{Name: "toy", Prog: ws[0].Prog}}, bench.Fig9Variants()); err != nil || len(res[0]) == 0 {
		t.Errorf("fig9: %v", err)
	}
}

func TestTable2Shape(t *testing.T) {
	ks := []int{1, 2, 3, 6}
	steps, err := bench.Table2(6, ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(ks) {
		t.Fatalf("steps: %v", steps)
	}
	// Steps must shrink monotonically with k and k=6 must beat k=1 by
	// roughly the rotation count.
	prev := int64(1 << 62)
	for i, k := range ks {
		if steps[i] > prev {
			t.Errorf("k=%d regressed: %d > %d", k, steps[i], prev)
		}
		prev = steps[i]
	}
	if steps[0] < 3*steps[3] {
		t.Errorf("serialization too weak: k=1 %d vs k=6 %d", steps[0], steps[3])
	}
}

func TestSensDMonotone(t *testing.T) {
	// d starts at 2: the toy program contains CNOTs, and a d=1 machine
	// cannot execute a 2-qubit gate — schedulers reject it (the old d=1
	// row existed only while LPFS ignored d for pinned-path heads).
	vs := bench.DVariants(core.LPFS, []int{2, 3, 4, 0})
	got := speedups(t, toyWorkloads(t), vs)
	// Larger d never hurts (0 = unlimited comes last).
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1]*0.99 {
			t.Errorf("%s speedup %.3f regressed from %s %.3f", vs[i].Label, got[i], vs[i-1].Label, got[i-1])
		}
	}
}

func TestSensEPRMonotone(t *testing.T) {
	vs := bench.EPRVariants(core.LPFS, []int{1, 2, 4, 0})
	got := speedups(t, toyWorkloads(t), vs)
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1]*0.99 {
			t.Errorf("%s speedup %.3f regressed from %s %.3f", vs[i].Label, got[i], vs[i-1].Label, got[i-1])
		}
	}
	// A bandwidth of 1 must not beat unlimited.
	if got[0] > got[len(got)-1]+1e-9 {
		t.Errorf("throttled beats unlimited: %.3f vs %.3f", got[0], got[len(got)-1])
	}
}

func TestAblationsRun(t *testing.T) {
	ws := toyWorkloads(t)
	if n := len(bench.LPFSAblation); n != 5 {
		t.Errorf("lpfs variants: %d", n)
	}
	if n := len(bench.RCPAblation); n != 4 {
		t.Errorf("rcp variants: %d", n)
	}
	commVs := bench.CommAblation(core.LPFS)
	if len(commVs) != 2 {
		t.Fatalf("comm variants: %d", len(commVs))
	}
	cm := speedups(t, ws, commVs)
	// Masked accounting is never slower than strict.
	if cm[0] < cm[1]-1e-9 {
		t.Errorf("masked %.3f below strict %.3f", cm[0], cm[1])
	}
	for _, vs := range [][]bench.Variant{bench.LPFSAblation, bench.RCPAblation, commVs} {
		for j, s := range speedups(t, ws, vs) {
			if s <= 0 {
				t.Errorf("toy/%s: non-positive speedup", vs[j].Label)
			}
		}
	}
}

func TestSweepFTh(t *testing.T) {
	rows, err := bench.SweepFTh([]bench.Benchmark{{Name: "toy", Source: toySource}}, core.LPFS, 2, []int64{10, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Below the inner module's size, the program stays modular; above,
	// it flattens into fewer modules.
	if rows[0].Modules <= rows[1].Modules {
		t.Errorf("fth=10 modules %d should exceed fth=1000 modules %d",
			rows[0].Modules, rows[1].Modules)
	}
}
