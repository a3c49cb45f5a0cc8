// Package machine holds the Multi-SIMD(k,d) architecture's physical
// communication primitive (§2.3): the paper's Fig. 2 teleportation
// circuit, which the communication pass charges as one 4-cycle global
// move. Schedules and their move lists are replayed and checked by
// internal/verify, the toolflow's one replay oracle.
package machine

import (
	"fmt"

	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
)

// TeleportCircuit returns the paper's Fig. 2 quantum-teleportation
// circuit as a leaf module: the state of parameter src transfers onto
// parameter dst through the pre-distributed EPR pair (epr0 near the
// source, epr1 = dst at the destination), using measurement and
// classically controlled X/Z corrections.
//
// The logical schedule charges this sequence as comm.TeleportCycles = 4
// timesteps: (1) the source-side CNOT, (2) the source Hadamard, (3) the
// two measurements, (4) the corrections. The returned module encodes the
// corrections as coherent controlled gates (CNOT/CZ from the measured
// qubits), the standard deferred-measurement form, so the simulator can
// verify the transfer end to end.
//
// Layout: slot 0 = src (state to move, destroyed), slot 1 = epr half at
// the source, slot 2 = dst (epr half at the destination; receives the
// state). The EPR pair is created in-circuit from |00>: H(epr0),
// CNOT(epr0, dst) — physically this happens at the global memory before
// distribution (§2.3).
func TeleportCircuit() *ir.Module {
	m := ir.NewModule("teleport", []ir.Reg{
		{Name: "src", Size: 1},
		{Name: "epr0", Size: 1},
		{Name: "dst", Size: 1},
	}, nil)
	// EPR pair preparation (pre-distribution).
	m.Gate(qasm.H, 1)
	m.Gate(qasm.CNOT, 1, 2)
	// Fig. 2: Bell measurement of src against the source EPR half...
	m.Gate(qasm.CNOT, 0, 1)
	m.Gate(qasm.H, 0)
	// ...and classically controlled corrections at the destination,
	// in deferred-measurement form.
	m.Gate(qasm.CNOT, 1, 2) // X correction controlled by the q2 outcome
	m.Gate(qasm.CZ, 0, 2)   // Z correction controlled by the q1 outcome
	// The consumed qubits are measured out and reclaimed as ancilla/EPR
	// stock (§4.4).
	m.Gate(qasm.MeasZ, 0)
	m.Gate(qasm.MeasZ, 1)
	return m
}

// TeleportProgram wraps TeleportCircuit in a standalone program whose
// entry prepares an arbitrary single-qubit state via the supplied prep
// gates on qubit 0 and teleports it to qubit 2.
func TeleportProgram(prep []qasm.Opcode, angles []float64) (*ir.Program, error) {
	if len(prep) != len(angles) {
		return nil, fmt.Errorf("machine: %d prep gates but %d angles", len(prep), len(angles))
	}
	p := ir.NewProgram("main")
	p.Add(TeleportCircuit())
	main := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 3}})
	for i, g := range prep {
		if g.Arity() != 1 {
			return nil, fmt.Errorf("machine: prep gate %s is not single-qubit", g)
		}
		main.Rot(g, angles[i], 0)
	}
	main.Call("teleport", ir.Range{Start: 0, Len: 3})
	p.Add(main)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
