package e2e

import (
	"fmt"

	"tnpu/internal/compiler"
	"tnpu/internal/dram"
	"tnpu/internal/memprot"
	"tnpu/internal/npu"
	"tnpu/internal/stats"
)

// BatchResult summarizes a steady-state inference service: the paper notes
// that a loaded model serves many requests, amortizing the parameter
// initialization (Sec. V-D). RunBatch loads parameters once and then
// serves `requests` back-to-back inferences, each with a fresh input
// (streamed through ts_write under a bumped version) and an output read.
type BatchResult struct {
	Scheme   memprot.Scheme
	Requests int
	// InitCycles is the one-time parameter load.
	InitCycles uint64
	// TotalCycles is the full span including init.
	TotalCycles uint64
	// PerRequestCycles is the steady-state amortized latency.
	PerRequestCycles uint64
	Traffic          stats.Traffic
}

// Throughput returns inferences per second at the given clock.
func (r BatchResult) Throughput(freqHz uint64) float64 {
	if r.PerRequestCycles == 0 {
		return 0
	}
	return float64(freqHz) / float64(r.PerRequestCycles)
}

// RunBatch serves `requests` inferences on one NPU with parameters loaded
// once.
func RunBatch(prog *compiler.Program, scheme memprot.Scheme, cfg npu.Config, requests int) (BatchResult, error) {
	if requests <= 0 {
		return BatchResult{}, fmt.Errorf("e2e: requests must be positive, got %d", requests)
	}
	if err := cfg.Validate(); err != nil {
		return BatchResult{}, err
	}
	bus := dram.NewBus(cfg.Mem)
	eng, err := memprot.New(scheme, memprot.DefaultConfig(bus))
	if err != nil {
		return BatchResult{}, err
	}
	res := BatchResult{Scheme: scheme, Requests: requests}
	tio := newTensorIO(eng, bus)

	// One-time parameter load (weights only; the input reloads per
	// request below).
	var t uint64
	for _, ten := range prog.Tensors {
		if !compiler.IsWeight(ten.Name) {
			continue
		}
		t = eng.VersionFetch(t, memprot.VTableSlot(uint32(ten.ID), 0), true)
		t = tio.write(t, ten)
	}
	res.InitCycles = t

	input := prog.Tensors[0]
	out := prog.Tensors[len(prog.Tensors)-1]
	end := t
	for req := 0; req < requests; req++ {
		// Fresh input for this request. The real software bumps the input
		// version per request; the trace's embedded version-1 reads model
		// the per-request state equivalently because each request's
		// machine is independent.
		issue := eng.VersionFetch(end, memprot.VTableSlot(uint32(input.ID), 0), true)
		issue = tio.write(issue, input)
		m := npu.NewMachine(prog, eng)
		m.Run()
		runEnd := m.Cycles()
		if runEnd < issue {
			runEnd = issue
		}
		issue = eng.VersionFetch(runEnd, memprot.VTableSlot(uint32(out.ID), 0), false)
		end = tio.read(issue, out)
	}
	res.TotalCycles = end
	res.PerRequestCycles = (end - res.InitCycles) / uint64(requests)
	eng.Flush(end)
	res.Traffic = *eng.Traffic()
	return res, nil
}
