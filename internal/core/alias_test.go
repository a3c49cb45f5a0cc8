package core_test

import (
	"testing"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/ir"
)

// TestEvaluateLeavesProgramUnmutated: a flat leaf's materialization is
// the program's own module, shared by the concurrent width tasks, so no
// layer of a verified evaluation may write to it. Every module's content
// fingerprint must read the same afterwards.
func TestEvaluateLeavesProgramUnmutated(t *testing.T) {
	for _, fth := range []int64{50, 0} {
		p, err := core.Build(toySource, core.PipelineOptions{FTh: fth})
		if err != nil {
			t.Fatal(err)
		}
		before := map[string]ir.Fingerprint{}
		for name, m := range p.Modules {
			before[name] = m.Fingerprint()
		}
		for _, s := range []core.Scheduler{core.RCP, core.LPFS} {
			opts := core.EvalOptions{Scheduler: s, K: 4, Verify: true, Workers: 4}
			opts.Comm.LocalCapacity = -1
			if _, err := core.Evaluate(p, opts); err != nil {
				t.Fatalf("fth %d %v: %v", fth, s, err)
			}
		}
		for name, m := range p.Modules {
			if m.Fingerprint() != before[name] {
				t.Errorf("fth %d: module %s changed during Evaluate", fth, name)
			}
		}
	}
}
