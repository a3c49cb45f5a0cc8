// Package dag builds the gate-dependency DAG of a materialized leaf
// module and provides the graph analyses the schedulers need: ASAP
// depths, heights, the critical path, slack, and longest-path extraction
// for LPFS (paper §4.2).
//
// Dependencies follow from the no-cloning theorem (paper §3.1.1): any
// shared operand between two operations orders them, so each op depends
// on the previous op touching each of its qubits.
package dag

import (
	"fmt"

	"github.com/scaffold-go/multisimd/internal/ir"
)

// Graph is the dependency DAG over a module's ops. Node i corresponds to
// Module.Ops[i].
type Graph struct {
	M     *ir.Module
	Preds [][]int32
	Succs [][]int32
	// Depth is the 1-based ASAP level: 1 + max depth of predecessors.
	Depth []int32
	// Height is the 1-based longest path to any sink: 1 + max successor
	// height.
	Height []int32
	cp     int32
}

// Build constructs the graph. The module must be a materialized leaf:
// gate ops only, Count <= 1.
//
// The adjacency lists are views into two flat arenas, cut with cap ==
// len so an append to one list cannot overwrite the next; empty lists
// are nil. An op has at most one predecessor per operand, so the
// module's operand count sizes the predecessor arena.
func Build(m *ir.Module) (*Graph, error) {
	n := len(m.Ops)
	g := &Graph{
		M:      m,
		Preds:  make([][]int32, n),
		Succs:  make([][]int32, n),
		Depth:  make([]int32, n),
		Height: make([]int32, n),
	}
	operands := 0
	for i := range m.Ops {
		operands += len(m.Ops[i].Args)
	}
	predArena := make([]int32, operands)
	// succOff[p+1] counts p's successors; prefix sums then turn it into
	// offsets into the successor arena.
	succOff := make([]int32, n+1)
	last := make([]int32, m.TotalSlots())
	for i := range last {
		last[i] = -1
	}
	edges := 0
	for i := 0; i < n; i++ {
		op := &m.Ops[i]
		if op.Kind != ir.GateOp {
			return nil, fmt.Errorf("dag: module %s op %d is a call; materialize and flatten leaves first", m.Name, i)
		}
		if op.EffCount() != 1 {
			return nil, fmt.Errorf("dag: module %s op %d has count %d; materialize first", m.Name, i, op.Count)
		}
		var depth int32
		start := edges
		for _, slot := range op.Args {
			p := last[slot]
			if p >= 0 {
				if !contains(predArena[start:edges], p) {
					predArena[edges] = p
					edges++
					succOff[p+1]++
				}
				if g.Depth[p] > depth {
					depth = g.Depth[p]
				}
			}
			last[slot] = int32(i)
		}
		if edges > start {
			g.Preds[i] = predArena[start:edges:edges]
		}
		g.Depth[i] = depth + 1
		if g.Depth[i] > g.cp {
			g.cp = g.Depth[i]
		}
	}
	// Successors in increasing op order, the order in which the edges
	// were discovered. The fill advances succOff[p] from p's start to
	// its end, which is p+1's start.
	for i := 0; i < n; i++ {
		succOff[i+1] += succOff[i]
	}
	succArena := make([]int32, edges)
	for i := 0; i < n; i++ {
		for _, p := range g.Preds[i] {
			succArena[succOff[p]] = int32(i)
			succOff[p]++
		}
	}
	lo := int32(0)
	for p := 0; p < n; p++ {
		if hi := succOff[p]; lo < hi {
			g.Succs[p] = succArena[lo:hi:hi]
			lo = hi
		}
	}
	// Heights in reverse order: successors always have larger indices
	// because dependencies point backward in the linear op order.
	for i := n - 1; i >= 0; i-- {
		var h int32
		for _, s := range g.Succs[i] {
			if g.Height[s] > h {
				h = g.Height[s]
			}
		}
		g.Height[i] = h + 1
	}
	return g, nil
}

func contains(xs []int32, x int32) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.Depth) }

// CriticalPath returns the length (in ops) of the longest dependency
// chain — the paper's theoretical speedup bound (Fig. 6 "cp" bars).
func (g *Graph) CriticalPath() int { return int(g.cp) }

// Slack returns how many levels op i can slip without stretching the
// critical path: ALAP(i) - ASAP(i).
func (g *Graph) Slack(i int32) int32 {
	return g.cp - g.Height[i] + 1 - g.Depth[i]
}

// Roots returns nodes with no predecessors, i.e. the initial ready set.
func (g *Graph) Roots() []int32 {
	var roots []int32
	for i := range g.Preds {
		if len(g.Preds[i]) == 0 {
			roots = append(roots, int32(i))
		}
	}
	return roots
}

// NextLongestPath extracts a maximal dependency chain starting from the
// candidate node set (typically the current ready list), skipping nodes
// already marked done. It greedily starts at the candidate with the
// largest static height and extends through the not-done successor of
// largest height — exact for the first extraction and a tight
// approximation for refills (paper's Refill option). Returns nil when no
// candidate remains.
func (g *Graph) NextLongestPath(done []bool, candidates []int32) []int32 {
	best := int32(-1)
	for _, c := range candidates {
		if done[c] {
			continue
		}
		if best < 0 || g.Height[c] > g.Height[best] {
			best = c
		}
	}
	if best < 0 {
		return nil
	}
	path := make([]int32, 1, g.Height[best])
	path[0] = best
	cur := best
	for {
		next := int32(-1)
		for _, s := range g.Succs[cur] {
			if done[s] {
				continue
			}
			if next < 0 || g.Height[s] > g.Height[next] {
				next = s
			}
		}
		if next < 0 {
			return path
		}
		path = append(path, next)
		cur = next
	}
}
