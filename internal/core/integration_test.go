package core_test

import (
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/rcp"
	"github.com/scaffold-go/multisimd/internal/resource"
	"github.com/scaffold-go/multisimd/internal/schedule"
	"github.com/scaffold-go/multisimd/internal/verify"
)

// TestBenchmarkLeavesExecuteOnMachine is the deep end-to-end check: for
// every leaf module of every (scaled) paper benchmark, both schedulers'
// outputs are validated against the dependency DAG and then replayed on
// the Multi-SIMD machine model by verify.Full, which re-derives every
// qubit location from the communication annotations and checks every
// move, counter and cycle total. Its op-once check also requires every
// operation of the leaf to execute exactly once. Any disagreement
// anywhere in the toolflow fails here.
func TestBenchmarkLeavesExecuteOnMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("machine replay across all benchmark leaves is slow; run without -short")
	}
	configs := []struct {
		sched string
		k     int
		opts  comm.Options
	}{
		{"rcp", 2, comm.Options{}},
		{"rcp", 4, comm.Options{LocalCapacity: -1}},
		{"lpfs", 2, comm.Options{}},
		{"lpfs", 4, comm.Options{LocalCapacity: -1}},
		{"lpfs", 4, comm.Options{LocalCapacity: 2}},
		{"rcp", 4, comm.Options{LocalCapacity: -1, NoOverlap: true}},
		{"lpfs", 4, comm.Options{LocalCapacity: -1, EPRBandwidth: 1}},
		{"rcp", 2, comm.Options{LocalCapacity: 2, EPRBandwidth: 2}},
	}
	for _, b := range bench.AllSmall() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			opts := b.Pipeline
			opts.FTh = 2000
			prog, err := core.Build(b.Source, opts)
			if err != nil {
				t.Fatal(err)
			}
			est, err := resource.New(prog)
			if err != nil {
				t.Fatal(err)
			}
			leaves := 0
			for _, name := range est.Reachable() {
				mod := prog.Modules[name]
				if !mod.IsLeaf() {
					continue
				}
				leaves++
				mat, err := mod.Materialize(1 << 22)
				if err != nil {
					t.Fatalf("%s: materialize: %v", name, err)
				}
				g, err := dag.Build(mat)
				if err != nil {
					t.Fatalf("%s: dag: %v", name, err)
				}
				for _, cfg := range configs {
					var s *schedule.Schedule
					if cfg.sched == "rcp" {
						s, err = rcp.Schedule(mat, g, rcp.Options{K: cfg.k})
					} else {
						s, err = lpfs.Schedule(mat, g, lpfs.Options{K: cfg.k})
					}
					if err != nil {
						t.Fatalf("%s %s k=%d: %v", name, cfg.sched, cfg.k, err)
					}
					if err := s.Validate(g); err != nil {
						t.Fatalf("%s %s k=%d: invalid schedule: %v", name, cfg.sched, cfg.k, err)
					}
					res, err := comm.Analyze(s, cfg.opts)
					if err != nil {
						t.Fatalf("%s %s k=%d: comm: %v", name, cfg.sched, cfg.k, err)
					}
					if err := verify.Full(s, g, res, cfg.opts); err != nil {
						t.Fatalf("%s %s k=%d %+v: %v", name, cfg.sched, cfg.k, cfg.opts, err)
					}
				}
			}
			if leaves == 0 {
				t.Error("benchmark has no leaves")
			}
			t.Logf("%s: %d leaves verified under %d configurations", b.Name, leaves, len(configs))
		})
	}
}
