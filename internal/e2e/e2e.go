// Package e2e models the end-to-end latency of Sec. V-D: from the arrival
// of (already securely transferred) sensor data to the return of the
// inference result to the CPU enclave. On top of the NPU execution itself
// it charges the CPU-side phases that also cross the protected memory:
//
//  1. initialization — the enclave streams model parameters and the input
//     into the NPU region through the uncached ts_write_block path
//     (Sec. IV-C), block by block under fresh versions;
//  2. NPU inference — the compiled trace on the simulator;
//  3. output return — the enclave reads the result tensor back through
//     ts_read_block.
//
// The paper evaluates conservatively with the parameter load charged to a
// single request; Amortized reports the recurring part (input + inference
// + output) for the many-requests-per-loaded-model case the paper
// discusses.
package e2e

import (
	"tnpu/internal/compiler"
	"tnpu/internal/dram"
	"tnpu/internal/memprot"
	"tnpu/internal/npu"
	"tnpu/internal/stats"
)

// Result breaks the end-to-end latency into its phases.
type Result struct {
	Scheme memprot.Scheme
	// InitCycles covers the parameter + input ts_write streaming.
	InitCycles uint64
	// RunCycles is the NPU inference span (end of init to last retire).
	RunCycles uint64
	// OutputCycles covers the CPU reading back the result tensor.
	OutputCycles uint64
	// Total is the full sensor-to-result latency.
	Total   uint64
	Traffic stats.Traffic
}

// Amortized is the steady-state per-request latency once parameters are
// resident (init paid once across many requests).
func (r Result) Amortized() uint64 { return r.RunCycles + r.OutputCycles }

// isParameter aliases the compiler's naming convention for the data the
// CPU initializes (shared with internal/core and internal/attack).
func isParameter(name string) bool { return compiler.IsParameter(name) }

// Run executes the full end-to-end flow for one request on one NPU.
func Run(prog *compiler.Program, scheme memprot.Scheme, cfg npu.Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	bus := dram.NewBus(cfg.Mem)
	eng, err := memprot.New(scheme, memprot.DefaultConfig(bus))
	if err != nil {
		return Result{}, err
	}
	res := Result{Scheme: scheme}
	tio := newTensorIO(eng, bus)

	// Phase 1: the CPU streams parameters through ts_write_block. One
	// version-table update per tensor, then block-granular writes.
	var t uint64
	for _, ten := range prog.Tensors {
		if !isParameter(ten.Name) {
			continue
		}
		t = eng.VersionFetch(t, memprot.VTableSlot(uint32(ten.ID), 0), true)
		t = tio.write(t, ten)
	}
	res.InitCycles = t

	// Phase 2: NPU inference. The machine's requests queue behind the
	// initialization traffic on the shared bus.
	m := npu.NewMachine(prog, eng)
	m.Run()
	runEnd := m.Cycles()
	if runEnd < res.InitCycles {
		runEnd = res.InitCycles
	}
	res.RunCycles = runEnd - res.InitCycles

	// Phase 3: the CPU fetches the final output tensor via ts_read_block.
	out := prog.Tensors[len(prog.Tensors)-1]
	issue := eng.VersionFetch(runEnd, memprot.VTableSlot(uint32(out.ID), 0), false)
	done := tio.read(issue, out)
	res.OutputCycles = done - runEnd
	res.Total = done
	t = done
	eng.Flush(t)
	res.Traffic = *eng.Traffic()
	return res, nil
}
