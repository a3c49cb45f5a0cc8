package schedule

import (
	"slices"

	"github.com/scaffold-go/multisimd/internal/dag"
)

// Builder appends the steps of one schedule, carving every step's region
// headers and op lists out of shared arenas instead of allocating them
// per step. The schedulers use it so that a leaf of n ops costs a few
// large allocations rather than a few per timestep.
//
// Region op lists are views with cap == len into one n-op arena (each op
// is placed exactly once), so an append to a finished list reallocates
// instead of overwriting its neighbour. Empty regions stay nil.
type Builder struct {
	s       *Schedule
	step    Step
	regions [][]int32 // unused region headers of the current chunk
	ops     []int32   // unused op-list storage
}

// NewBuilder starts building the steps of s, a schedule of g's module.
// Steps are reserved at g's critical path, a lower bound on any
// schedule's length.
func NewBuilder(s *Schedule, g *dag.Graph) *Builder {
	s.Steps = make([]Step, 0, g.CriticalPath())
	return &Builder{s: s, ops: make([]int32, g.Len())}
}

// Begin opens a new step with s.K empty regions.
func (b *Builder) Begin() {
	k := b.s.K
	if len(b.regions) < k {
		// One chunk covers the steps the Steps slice has room for, so
		// the header arenas grow in step with it.
		if len(b.s.Steps) == cap(b.s.Steps) {
			b.s.Steps = slices.Grow(b.s.Steps, 1)
		}
		b.regions = make([][]int32, k*(cap(b.s.Steps)-len(b.s.Steps)))
	}
	b.step = Step{Regions: b.regions[:k:k]}
	b.regions = b.regions[k:]
}

// Place appends ops to region r of the open step. ops is copied, so the
// caller may reuse it.
func (b *Builder) Place(r int, ops []int32) {
	if len(ops) == 0 {
		return
	}
	if cur := b.step.Regions[r]; len(cur) > 0 || len(ops) > len(b.ops) {
		b.step.Regions[r] = append(cur, ops...)
		return
	}
	n := len(ops)
	b.step.Regions[r] = b.ops[:n:n]
	copy(b.ops, ops)
	b.ops = b.ops[n:]
}

// End appends the open step to the schedule.
func (b *Builder) End() {
	b.s.Steps = append(b.s.Steps, b.step)
	b.step = Step{}
}
