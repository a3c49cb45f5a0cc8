package core_test

import (
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/ir"
)

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

func TestBuildPipeline(t *testing.T) {
	p, err := core.Build(toySource, core.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.EntryModule() == nil {
		t.Fatal("no entry")
	}
}

func TestFrontendSkipsMidend(t *testing.T) {
	src := `module main() { qbit q[3]; Toffoli(q[0], q[1], q[2]); }`
	p, err := core.Frontend(src, core.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.EntryModule().Ops[0].Gate.IsPrimitive() {
		t.Error("Frontend decomposed the Toffoli")
	}
	p2, err := core.Build(src, core.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.EntryModule().Ops) != 15 {
		t.Errorf("Build should decompose Toffoli to 15 gates, got %d", len(p2.EntryModule().Ops))
	}
}

func TestEvaluateMetricsConsistency(t *testing.T) {
	p, err := core.Build(toySource, core.PipelineOptions{FTh: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []core.Scheduler{core.RCP, core.LPFS} {
		m, err := core.Evaluate(p, core.EvalOptions{Scheduler: s, K: 2, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		if m.TotalGates != 306 { // 3 gates x 102 invocations
			t.Errorf("%v gates = %d", s, m.TotalGates)
		}
		if m.SeqCycles != m.TotalGates || m.NaiveCycles != 5*m.TotalGates {
			t.Errorf("%v baselines: %+v", s, m)
		}
		if m.CriticalPath <= 0 || m.CriticalPath > m.SeqCycles {
			t.Errorf("%v cp = %d", s, m.CriticalPath)
		}
		if m.ZeroCommSteps < m.CriticalPath/2 {
			t.Errorf("%v steps %d below half cp %d (impossible)", s, m.ZeroCommSteps, m.CriticalPath)
		}
		if m.CommCycles < m.ZeroCommSteps {
			t.Errorf("%v comm %d < steps %d", s, m.CommCycles, m.ZeroCommSteps)
		}
		if m.SpeedupVsSeq() <= 0 || m.SpeedupVsNaive() <= 0 {
			t.Errorf("%v speedups: %g %g", s, m.SpeedupVsSeq(), m.SpeedupVsNaive())
		}
	}
}

func TestEvaluateLocalMemoryNeverHurts(t *testing.T) {
	p, err := core.Build(toySource, core.PipelineOptions{FTh: 50})
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.Evaluate(p, core.EvalOptions{Scheduler: core.LPFS, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	withLocal, err := core.Evaluate(p, core.EvalOptions{Scheduler: core.LPFS, K: 4, Comm: comm.Options{LocalCapacity: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if withLocal.CommCycles > base.CommCycles {
		t.Errorf("local memory hurt: %d > %d", withLocal.CommCycles, base.CommCycles)
	}
}

func TestEmitAndParseQASM(t *testing.T) {
	p, err := core.Build(`
module f(qbit x[2]) { CNOT(x[0], x[1]); }
module main() {
  qbit q[2];
  H(q[0]);
  f(q);
  Rz(q[1], 0.785398163397448);
}
`, core.PipelineOptions{SkipDecompose: true})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	n, err := core.EmitQASM(&sb, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("emitted %d instructions", n)
	}
	text := sb.String()
	for _, want := range []string{"qubit q[0]", "H(q[0])", "CNOT(q[0],q[1])", "Rz(q[1],"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	back, err := core.ParseQASM(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(back.EntryModule().Ops); got != 3 {
		t.Errorf("parsed %d ops", got)
	}
}

func TestEmitQASMLimit(t *testing.T) {
	p, err := core.Build(`
module main() {
  qbit q;
  for (i = 0; i < 1000000; i++) { T(q); }
}
`, core.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := core.EmitQASM(&sb, p, 100); err == nil {
		t.Error("limit not enforced")
	}
}

func TestEmitQASMAncillaNames(t *testing.T) {
	p := ir.NewProgram("main")
	leaf := ir.NewModule("leaf", []ir.Reg{{Name: "x", Size: 1}}, []ir.Reg{{Name: "a", Size: 1}})
	leaf.Gate(0 /* X */, 1)
	p.Add(leaf)
	main := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 1}})
	main.Call("leaf", ir.Range{Start: 0, Len: 1})
	main.Call("leaf", ir.Range{Start: 0, Len: 1})
	p.Add(main)
	var sb strings.Builder
	if _, err := core.EmitQASM(&sb, p, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "anc0") || !strings.Contains(sb.String(), "anc1") {
		t.Errorf("ancilla naming: %s", sb.String())
	}
}

func TestAncillaReuseOption(t *testing.T) {
	src := `
module f(qbit x) {
  qbit anc[4];
  CNOT(x, anc[0]);
  CNOT(x, anc[0]);
  CNOT(x, anc[1]);
  CNOT(x, anc[1]);
}
module main() {
  qbit q;
  f(q);
  f(q);
}`
	plain, err := core.Build(src, core.PipelineOptions{FTh: 1000})
	if err != nil {
		t.Fatal(err)
	}
	reused, err := core.Build(src, core.PipelineOptions{FTh: 1000, AncillaReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	p0 := plain.EntryModule().TotalSlots()
	p1 := reused.EntryModule().TotalSlots()
	if p1 >= p0 {
		t.Errorf("ancilla reuse did not shrink footprint: %d -> %d", p0, p1)
	}
	// Both inlined f bodies use 4 ancillae, live ranges sequential and
	// pairwise disjoint: the whole program needs q + 1 shared ancilla.
	if p1 != 2 {
		t.Errorf("reused footprint %d, want 2", p1)
	}
	if err := reused.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseQASMErrors(t *testing.T) {
	if _, err := core.ParseQASM(strings.NewReader("qubit q\nqubit q\n")); err == nil {
		t.Error("duplicate qubit accepted")
	}
	if _, err := core.ParseQASM(strings.NewReader("H q\n")); err == nil {
		t.Error("malformed instruction accepted")
	}
	// Implicit ancillae declare on first use.
	p, err := core.ParseQASM(strings.NewReader("qubit q\nCNOT(q,anc7)\n"))
	if err != nil {
		t.Fatal(err)
	}
	if p.EntryModule().TotalSlots() != 2 {
		t.Errorf("slots: %d", p.EntryModule().TotalSlots())
	}
}

func TestBuildSources(t *testing.T) {
	lib := `module helper(qbit x) { H(x); }`
	mainSrc := `module main() { qbit q; helper(q); }`
	p, err := core.BuildSources(core.PipelineOptions{}, lib, mainSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildSourcesErrorPositions pins the fragment-relative diagnostics:
// each fragment parses on its own, so an error in fragment 2 reports
// fragment 2's line numbers, not positions shifted by fragment 1's
// length (the old bare-"\n" concatenation mangled them).
func TestBuildSourcesErrorPositions(t *testing.T) {
	lib := "module helper(qbit x) {\n  H(x);\n}\n\nmodule helper2(qbit x) {\n  X(x);\n}\n"
	bad := "module main() {\n  qbit q;\n  !!!;\n}\n"
	_, err := core.BuildSources(core.PipelineOptions{}, lib, bad)
	if err == nil {
		t.Fatal("syntax error in fragment 2 not reported")
	}
	if !strings.Contains(err.Error(), "fragment 2") {
		t.Errorf("error does not name the fragment: %v", err)
	}
	if !strings.Contains(err.Error(), "3:") {
		t.Errorf("error position not relative to its fragment (want line 3): %v", err)
	}
	if strings.Contains(err.Error(), "10:") {
		t.Errorf("error position shifted by preceding fragment: %v", err)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on bad source")
		}
	}()
	core.MustBuild("not a program", core.PipelineOptions{})
}

func TestEvaluateErrors(t *testing.T) {
	p, err := core.Build(toySource, core.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Evaluate(p, core.EvalOptions{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := core.SchedulerByName("no-such-algorithm"); err == nil {
		t.Error("unknown scheduler name accepted")
	}
	if _, err := core.Evaluate(p, core.EvalOptions{K: 2, MaterializeLimit: 3}); err == nil {
		t.Error("tiny materialize limit accepted")
	}
}
