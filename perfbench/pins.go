package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/server"
)

// pinFile holds the expected output of every compile the workloads
// run, recorded once from a known-good build: the evaluation metrics
// per item, and the SHA-256 of the /v1/report body per service item.
const pinFile = "pins.json"

type pins struct {
	Metrics map[string]core.Metrics `json:"metrics"`
	Reports map[string]string       `json:"reports"`
}

func loadPins(dir string) (*pins, error) {
	b, err := os.ReadFile(filepath.Join(dir, pinFile))
	if err != nil {
		return nil, err
	}
	var p pins
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", pinFile, err)
	}
	return &p, nil
}

// checkMetrics compares an evaluation result with its pin.
func (p *pins) checkMetrics(key string, m *core.Metrics) error {
	want, ok := p.Metrics[key]
	if !ok {
		return fmt.Errorf("%s: no pinned metrics", key)
	}
	if *m != want {
		return fmt.Errorf("%s: metrics %+v, pinned %+v", key, *m, want)
	}
	return nil
}

// checkBody compares a /v1/compile or /v1/verify response body's
// metrics with the pin.
func (p *pins) checkBody(key string, body []byte) error {
	var r server.CompileResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s: decode response: %w", key, err)
	}
	want, ok := p.Metrics[key]
	if !ok {
		return fmt.Errorf("%s: no pinned metrics", key)
	}
	got := r.Metrics
	if got.TotalGates != want.TotalGates || got.MinQubits != want.MinQubits ||
		got.Modules != want.Modules || got.Leaves != want.Leaves ||
		got.CriticalPath != want.CriticalPath || got.ZeroCommSteps != want.ZeroCommSteps ||
		got.CommCycles != want.CommCycles || got.GlobalMoves != want.GlobalMoves ||
		got.LocalMoves != want.LocalMoves || got.SeqCycles != want.SeqCycles ||
		got.NaiveCycles != want.NaiveCycles {
		return fmt.Errorf("%s: response metrics %+v, pinned %+v", key, got, want)
	}
	return nil
}

func bodyDigest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// checkReport compares a /v1/report body with its pinned digest.
func (p *pins) checkReport(key string, body []byte) error {
	want, ok := p.Reports[key]
	if !ok {
		return fmt.Errorf("%s: no pinned report", key)
	}
	if got := bodyDigest(body); got != want {
		return fmt.Errorf("%s: report digest %s, pinned %s", key, got, want)
	}
	return nil
}

// writePins evaluates every item the workloads compile and records the
// results. Run it only on a build whose outputs are known good.
func writePins(dir string) error {
	p := &pins{Metrics: map[string]core.Metrics{}, Reports: map[string]string{}}
	all := append(items(ladderPrograms(), ladderCfgs), items(gatedPrograms(), serviceCfgs())...)
	for _, it := range all {
		prog, err := it.prog.build()
		if err != nil {
			return err
		}
		opts, err := it.evalOptions(0, nil)
		if err != nil {
			return err
		}
		m, err := core.Evaluate(prog, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", it.key(), err)
		}
		p.Metrics[it.key()] = *m
	}
	svc, err := startService("", 0)
	if err != nil {
		return err
	}
	defer svc.close()
	for _, it := range items(gatedPrograms(), serviceCfgs()) {
		body, err := json.Marshal(it.request())
		if err != nil {
			return err
		}
		x := svc.send(svcReq{path: "/v1/report"}, body)
		if x.err != nil || x.status != 200 {
			return fmt.Errorf("%s: report: status %d: %v", it.key(), x.status, x.err)
		}
		p.Reports[it.key()] = bodyDigest(x.body)
	}
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	fmt.Printf("pinned %d metrics, %d reports\n", len(p.Metrics), len(p.Reports))
	return os.WriteFile(filepath.Join(dir, pinFile), append(b, '\n'), 0o644)
}
