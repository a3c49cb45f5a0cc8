package schedule_test

import (
	"fmt"
	"testing"

	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

// TestBuilderViews: steps past the critical-path reservation still get
// headers, empty regions stay nil, and each region list is a cap == len
// view, so appending to one leaves the next list intact.
func TestBuilderViews(t *testing.T) {
	m := ir.NewModule("par", nil, []ir.Reg{{Name: "q", Size: 6}})
	for i := 0; i < 6; i++ {
		m.Gate(qasm.H, i) // critical path 1
	}
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	s := &schedule.Schedule{M: m, K: 3}
	b := schedule.NewBuilder(s, g)
	scratch := []int32{}
	for i := int32(0); i < 3; i++ {
		b.Begin()
		scratch = append(scratch[:0], 2*i, 2*i+1)
		b.Place(int(i), scratch)
		b.End()
	}
	if got := fmt.Sprint(s.Steps); got != "[{[[0 1] [] []]} {[[] [2 3] []]} {[[] [] [4 5]]}]" {
		t.Fatalf("steps = %s", got)
	}
	if s.Steps[0].Regions[1] != nil || s.Steps[2].Regions[0] != nil {
		t.Error("an empty region is not nil")
	}
	first := s.Steps[0].Regions[0]
	if cap(first) != len(first) {
		t.Fatalf("region list cap %d, len %d", cap(first), len(first))
	}
	_ = append(first, 99)
	if s.Steps[1].Regions[1][0] != 2 {
		t.Error("appending to one region list overwrote the next")
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
}
