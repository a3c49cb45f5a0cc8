package main

import (
	"fmt"
	"math/rand"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/flatten"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/request"
)

// program is one source program and the pipeline options it is built
// with. Gated benchmarks travel to the service by name; ladder programs
// travel as inline source.
type program struct {
	name   string
	src    string
	byName bool
	pipe   core.PipelineOptions
}

// fth is the flattening threshold the pipeline applies.
func (p *program) fth() int64 {
	if p.pipe.FTh == 0 {
		return flatten.DefaultThreshold
	}
	return p.pipe.FTh
}

// evalCfg is the machine and scheduler one evaluation runs under.
type evalCfg struct {
	sched string
	k     int
	local int
}

// item is one compile: a program under one evaluation config.
type item struct {
	prog *program
	cfg  evalCfg
}

// key identifies an item in the pin file.
func (it item) key() string {
	return fmt.Sprintf("%s|fth=%d|%s|k=%d|local=%d", it.prog.name, it.prog.fth(), it.cfg.sched, it.cfg.k, it.cfg.local)
}

// request is the item as a service request, defaults applied.
func (it item) request() request.Config {
	c := request.Config{FTh: it.prog.fth(), Scheduler: it.cfg.sched, K: it.cfg.k, Local: it.cfg.local}
	if it.prog.byName {
		c.Bench = it.prog.name
	} else {
		c.Source = it.prog.src
	}
	return c.WithDefaults()
}

func (it item) evalOptions(workers int, cache *core.EvalCache) (core.EvalOptions, error) {
	s, err := core.SchedulerByName(it.cfg.sched)
	if err != nil {
		return core.EvalOptions{}, err
	}
	return core.EvalOptions{
		Scheduler: s,
		K:         it.cfg.k,
		Comm:      comm.Options{LocalCapacity: it.cfg.local},
		Workers:   workers,
		Cache:     cache,
	}, nil
}

// built pairs a program with its compiled IR.
type built struct {
	prog *program
	ir   *ir.Program
}

func (p *program) build() (*ir.Program, error) {
	out, err := core.Build(p.src, p.pipe)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", p.name, err)
	}
	return out, nil
}

// ladderPrograms are the size-ladder step toward the paper's
// parameters, each under its own pipeline options (FTh 2M, 3M for SHA-1).
func ladderPrograms() []*program {
	var out []*program
	for _, b := range []bench.Benchmark{bench.Shors(16), bench.SHA1Sized(6, 32, 80, 2)} {
		out = append(out, &program{name: b.Name + "(" + b.Params + ")", src: b.Source, pipe: b.Pipeline})
	}
	return out
}

// gatedPrograms are the bench.Gated() set at the service's request
// defaults, which build exactly as request.Config.Build does.
func gatedPrograms() []*program {
	var out []*program
	for _, b := range bench.Gated() {
		out = append(out, &program{
			name: b.Name, src: b.Source, byName: true,
			pipe: core.PipelineOptions{Entry: request.DefaultEntry, FTh: request.DefaultFTh},
		})
	}
	return out
}

var ladderCfgs = []evalCfg{{sched: "lpfs", k: 4, local: -1}}

var suiteCfgs = []evalCfg{
	{sched: "lpfs", k: request.DefaultK},
	{sched: "rcp", k: request.DefaultK},
}

// serviceCfgs is the service's config space per program.
func serviceCfgs() []evalCfg {
	var out []evalCfg
	for _, k := range []int{2, 4, 8} {
		for _, s := range []string{"lpfs", "rcp"} {
			for _, local := range []int{0, -1} {
				out = append(out, evalCfg{sched: s, k: k, local: local})
			}
		}
	}
	return out
}

// items crosses programs with configs, program-major.
func items(progs []*program, cfgs []evalCfg) []item {
	var out []item
	for _, p := range progs {
		for _, c := range cfgs {
			out = append(out, item{prog: p, cfg: c})
		}
	}
	return out
}

// shuffled returns progs in an order drawn from seed.
func shuffled(progs []*program, seed int64) []*program {
	out := append([]*program(nil), progs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
