package bench_test

import (
	"runtime"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/core"
)

// compileBudgetBytes bounds the bytes one whole compile of Shors(8)
// allocates: Build plus a cold LPFS Evaluate at k=4 with an unbounded
// scratchpad, on one worker so the count is deterministic. It is the
// measured value plus 5%; a leaf-path buffer that goes back to being
// regrown by append crosses it.
const compileBudgetBytes = 93_000_000 // 88.56e6 measured (2 CPUs, Go 1.24), plus 5%

func TestShors8CompileByteBudget(t *testing.T) {
	b := bench.Shors(8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := core.Build(b.Source, b.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.EvalOptions{Scheduler: core.LPFS, K: 4, Workers: 1}
	opts.Comm.LocalCapacity = -1
	if _, err := core.Evaluate(p, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Shors(8) Build+Evaluate allocated %d bytes", got)
	if got > compileBudgetBytes {
		t.Fatalf("Shors(8) Build+Evaluate allocated %d bytes, budget %d", got, compileBudgetBytes)
	}
}
