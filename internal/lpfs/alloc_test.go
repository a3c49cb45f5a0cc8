package lpfs_test

import (
	"math/rand"
	"testing"

	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/verify"
)

// TestScheduleNoPerStepAllocs: steps, region headers and region op
// lists come from the schedule builder's arenas, so a schedule of about
// 1,200 steps costs a few dozen allocations, not several per step.
func TestScheduleNoPerStepAllocs(t *testing.T) {
	m := verify.RandomLeaf(rand.New(rand.NewSource(3)), verify.GenOptions{Ops: 5000, Qubits: 12})
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	opts := lpfs.Options{K: 4}
	s, err := lpfs.Schedule(m, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := lpfs.Schedule(m, g, opts); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(len(s.Steps) / 16); allocs > limit {
		t.Fatalf("Schedule made %v allocations for %d steps, want <= %v", allocs, len(s.Steps), limit)
	}
}
