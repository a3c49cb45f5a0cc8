package dag_test

import (
	"math/rand"
	"testing"

	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
)

func seededLeaf(ops int) *ir.Module { return randomLeaf(rand.New(rand.NewSource(7)), ops, 16) }

// TestBuildAllocsFlat: the adjacency lists are views into two arenas, so
// Build's allocation count is the same for a 200-op leaf and a 20,000-op
// one.
func TestBuildAllocsFlat(t *testing.T) {
	small, large := seededLeaf(200), seededLeaf(20000)
	allocs := func(m *ir.Module) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := dag.Build(m); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Fatalf("Build allocs: %v at 200 ops, %v at 20000 ops; want equal", a, b)
	}
}

// TestBuildListsAreExactViews: every adjacency list has cap == len, so
// appending to one cannot overwrite its neighbour in the arena, and
// empty lists are nil.
func TestBuildListsAreExactViews(t *testing.T) {
	g, err := dag.Build(seededLeaf(500))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.Len(); i++ {
		for _, l := range [][]int32{g.Preds[i], g.Succs[i]} {
			if cap(l) != len(l) || (len(l) == 0 && l != nil) {
				t.Fatalf("node %d: list len %d cap %d nil=%v", i, len(l), cap(l), l == nil)
			}
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	m := seededLeaf(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dag.Build(m); err != nil {
			b.Fatal(err)
		}
	}
}
