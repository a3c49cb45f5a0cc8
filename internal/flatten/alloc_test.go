package flatten_test

import (
	"runtime"
	"testing"
	"unsafe"

	"github.com/scaffold-go/multisimd/internal/flatten"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
)

// wideProgram: leaf (16 gates over 4 params and 2 ancillae) <- mid (16
// calls, each repeated twice: 512 ops) <- main (256 mid calls: 131,072
// ops). Everything is under the default FTh, so both callers flatten.
func wideProgram() *ir.Program {
	p := ir.NewProgram("main")
	leaf := ir.NewModule("leaf", []ir.Reg{{Name: "x", Size: 4}}, []ir.Reg{{Name: "anc", Size: 2}})
	for i := 0; i < 8; i++ {
		leaf.Gate(qasm.CNOT, i%4, 4+i%2).Gate(qasm.T, (i+1)%4)
	}
	p.Add(leaf)
	mid := ir.NewModule("mid", []ir.Reg{{Name: "y", Size: 8}}, nil)
	for i := 0; i < 16; i++ {
		mid.CallN("leaf", 2, ir.Range{Start: i % 5, Len: 4})
	}
	p.Add(mid)
	main := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 64}})
	for i := 0; i < 256; i++ {
		main.Call("mid", ir.Range{Start: i % 57, Len: 8})
	}
	p.Add(main)
	return p
}

// TestProgramAllocBytes bounds what flattening allocates by the size of
// what it produces: the inlined bodies are sized once, not regrown by
// append, so the total stays within 1.5x the bytes of the output op
// arrays (operands, ancilla registers and the resource estimate make up
// the rest).
func TestProgramAllocBytes(t *testing.T) {
	p := wideProgram()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := flatten.Program(p, flatten.Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	var out uint64
	for _, name := range []string{"mid", "main"} {
		out += uint64(len(p.Modules[name].Ops)) * uint64(unsafe.Sizeof(ir.Op{}))
	}
	if n := len(p.Modules["main"].Ops); n != 131072 {
		t.Fatalf("main flattened to %d ops, want 131072", n)
	}
	if limit := out * 3 / 2; alloc > limit {
		t.Fatalf("flatten allocated %d bytes for %d bytes of op arrays (%.2fx), want <= 1.5x",
			alloc, out, float64(alloc)/float64(out))
	}
	t.Logf("flatten allocated %.2fx its output op arrays", float64(alloc)/float64(out))
}

func BenchmarkProgram(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := wideProgram()
		b.StartTimer()
		if _, err := flatten.Program(p, flatten.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
