// Package multinpu simulates 1–3 NPUs sharing the memory controller and
// the security engine, the Sec. V-C scalability setup: every NPU has its
// own IOMMU and context memory, but bandwidth and the metadata caches
// (counter, hash, MAC) are shared, so baseline counter/hash working sets
// collide — the effect that widens TNPU's advantage as NPU count grows.
package multinpu

import (
	"fmt"
	"sync/atomic"

	"tnpu/internal/compiler"
	"tnpu/internal/dram"
	"tnpu/internal/memprot"
	"tnpu/internal/npu"
	"tnpu/internal/stats"
)

// contextStride separates NPU contexts in physical memory (each context's
// tensors, and its version-table slots, live in a disjoint region).
const contextStride uint64 = 256 << 20

// slotStride separates the contexts' version tables within the 128MB
// fully protected region.
const slotStride uint64 = 2 << 20

// NPUStats attributes served work to one NPU — the per-tenant QoS view of
// a co-tenant run. Cycles, Blocks, and byte counters are identical across
// execution paths (pinned by the differential suite); Runs counts the DMA
// segments engine-level run bursts served and is observability for the
// batched path only (zero under block-granular interleave). One engine
// call serves all of an instruction's remaining segments; Runs stays per
// segment because it is persisted in cell results (the engine calls are
// counted by PathStats instead).
type NPUStats struct {
	Cycles     uint64
	Blocks     uint64
	ReadBytes  uint64
	WriteBytes uint64
	Runs       uint64
}

// Result summarizes a multi-NPU run.
type Result struct {
	Scheme memprot.Scheme
	// Cycles is the completion time of the slowest NPU — the paper's
	// normalized execution time for an n-NPU run.
	Cycles uint64
	// PerNPU is each NPU's own completion time.
	PerNPU []uint64
	// NPUs is the per-NPU served-work attribution (PerNPU cycles again,
	// plus block/byte/run counters).
	NPUs    []NPUStats
	Traffic stats.Traffic
	Counter stats.CacheStats
	Hash    stats.CacheStats
	MAC     stats.CacheStats
}

// forceBlockInterleave selects the block-granular reference arbitration
// for every subsequent multi-NPU run; the differential harness uses it for
// A/B equivalence checks.
var forceBlockInterleave atomic.Bool

// ForceBlockInterleave globally selects the block-granular reference
// arbitration loop for multi-NPU runs started after the call.
func ForceBlockInterleave(on bool) { forceBlockInterleave.Store(on) }

// Run executes count copies of prog (the paper runs the same inference
// model on every NPU) under one shared bus and protection engine.
func Run(prog *compiler.Program, scheme memprot.Scheme, cfg npu.Config, count int) (Result, error) {
	return RunCached(prog, scheme, cfg, count, nil)
}

// RunCached is Run with a shared joint-run cache (may be nil), which makes
// repeated multi-NPU cells (figure sweeps, serving) cheap.
func RunCached(prog *compiler.Program, scheme memprot.Scheme, cfg npu.Config, count int, cache *RunCache) (Result, error) {
	if count <= 0 {
		return Result{}, fmt.Errorf("multinpu: count must be positive, got %d", count)
	}
	progs := make([]*compiler.Program, count)
	for i := range progs {
		progs[i] = prog
	}
	return RunMixedCached(progs, scheme, cfg, cache)
}

// RunMixed executes a different program per NPU — the mixed-tenancy
// extension of the Sec. V-C setup (each context still gets its own memory
// region and version table; only bandwidth, the security engine, and the
// metadata caches are shared).
func RunMixed(progs []*compiler.Program, scheme memprot.Scheme, cfg npu.Config) (Result, error) {
	return RunMixedCached(progs, scheme, cfg, nil)
}

// RunMixedCached is RunMixed with a shared joint-run cache (may be nil),
// like RunCached.
func RunMixedCached(progs []*compiler.Program, scheme memprot.Scheme, cfg npu.Config, cache *RunCache) (Result, error) {
	if res, ok := cache.lookup(progs, scheme, cfg); ok {
		return res, nil
	}
	var ps PathStats
	res, err := runMixed(progs, scheme, cfg, &ps)
	if err != nil {
		return Result{}, err
	}
	totals.add(&ps)
	cache.store(progs, scheme, cfg, &res)
	return res, nil
}

// runMixed simulates one co-tenant set; ps receives the execution-path
// counters.
func runMixed(progs []*compiler.Program, scheme memprot.Scheme, cfg npu.Config, ps *PathStats) (Result, error) {
	count := len(progs)
	if count == 0 {
		return Result{}, fmt.Errorf("multinpu: no programs")
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	for i, p := range progs {
		if p.MemoryTop > contextStride {
			return Result{}, fmt.Errorf("multinpu: program %d needs %d bytes, context stride is %d", i, p.MemoryTop, contextStride)
		}
	}
	bus := dram.NewBus(cfg.Mem)
	eng, err := memprot.New(scheme, memprot.DefaultConfig(bus))
	if err != nil {
		return Result{}, err
	}

	machines := make([]*npu.Machine, count)
	for i := range machines {
		machines[i] = npu.NewMachineAt(progs[i], eng, uint64(i)*contextStride, uint64(i)*slotStride)
	}

	if count == 1 {
		// A lone NPU has the engine to itself: run whole DMA runs through
		// the batched path (cycle-identical to the block interleave below,
		// pinned by the differential suite).
		machines[0].Run()
		return assemble(scheme, eng, machines), nil
	}

	if forceBlockInterleave.Load() || !machines[0].Batched() {
		arbitrateBlocks(machines)
	} else {
		je, _ := eng.(memprot.JointEngine)
		arbitrate(bus, machines, je, ps)
	}
	ps.note(machines)
	return assemble(scheme, eng, machines), nil
}

// arbitrate is the horizon-bounded streak arbitration loop (DESIGN.md
// §6f): each scan selects the earliest-ready machine exactly as the block
// reference does, but also computes the interaction horizon — the minimum
// ready time over the other machines — and lets the winner serve as much
// of its instruction as provably issues strictly below that horizon.
// Other machines' ready times cannot change while the winner serves
// (NextReady mutates state only for machines between instructions, and
// every machine is active or exhausted after a scan), so the horizon is
// frozen for the duration of the streak and the serve order is exactly
// the reference's. Ties rotate as in the reference: the winner keeps
// serving only while strictly below every other ready time.
//
// A contended scan that passes jointAdmit first offers the instructions of
// the gate-dominated machines to the engine's joint path (je may be nil),
// which serves their saturated window in the reference's FIFO order —
// across instruction ends while the machines stay in it — bounded by the
// earliest ready time of the other active machines. Every contended scan
// it does not take counts as a fallback in ps, by reason; engine refusals
// back off exponentially so a persistent refusal costs O(1) amortized per
// scan.
//
//tnpu:noalloc
func arbitrate(bus *dram.Bus, machines []*npu.Machine, je memprot.JointEngine, ps *PathStats) {
	a := arbiter{bus: bus, machines: machines, je: je, ps: ps, backoff: 1}
	for a.step() {
	}
}

// arbiter is the state of one horizon-bounded arbitration loop.
type arbiter struct {
	bus      *dram.Bus
	machines []*npu.Machine
	je       memprot.JointEngine
	ps       *PathStats
	last     int // the machine served last (ties rotate from it)
	cl       [dram.MaxJointClients]memprot.JointClient
	who      [dram.MaxJointClients]int
	// Joint refusal backoff: scans left to skip, the next skip length,
	// and the refusal that armed it.
	skip, backoff int
	held          memprot.JointStop
}

// step performs one scan and serves its winner, reporting false once
// every machine is exhausted.
//
//tnpu:noalloc
func (a *arbiter) step() bool {
	count := len(a.machines)
	best, bestReady := -1, ^uint64(0)
	horizon := ^uint64(0)
	active := 0
	for off := 1; off <= count; off++ {
		i := (a.last + off) % count
		ready, ok := a.machines[i].NextReady()
		if !ok {
			continue
		}
		active++
		if ready < bestReady {
			horizon = bestReady
			best, bestReady = i, ready
		} else if ready < horizon {
			horizon = ready
		}
	}
	if best < 0 {
		return false
	}
	if active >= 2 && a.je != nil {
		reason := a.held
		if a.skip > 0 {
			a.skip--
		} else if reason = jointAdmit(a.bus, a.machines); reason == memprot.JointOK {
			if reason = a.joint(); reason == memprot.JointOK {
				return true
			}
			a.held = reason
			a.skip = a.backoff
			if a.backoff < maxJointBackoff {
				a.backoff *= 2
			}
		}
		a.ps.Fallbacks[reason]++
	}
	a.machines[best].ServeRunUntil(horizon)
	a.last = best
	return true
}

// joint hands the gate-dominated machines' instructions to the engine's
// joint path, bounded by the other active machines' earliest ready time,
// and folds the outcome back. It returns JointOK when the run served
// blocks, else the engine's refusal (nothing was served).
//
//tnpu:noalloc
func (a *arbiter) joint() memprot.JointStop {
	n, outside := 0, ^uint64(0)
	for i, m := range a.machines {
		ready, gate, ok := m.Gate()
		switch {
		case !ok:
		case ready == gate && n < dram.MaxJointClients && m.JointClient(&a.cl[n]):
			a.who[n] = i
			n++
		case ready < outside:
			outside = ready
		}
	}
	stop, last := a.je.JointRun(a.cl[:n], outside)
	if last < 0 {
		return stop
	}
	for c := 0; c < n; c++ {
		a.machines[a.who[c]].JointApply(&a.cl[c])
	}
	a.ps.JointRuns++
	a.ps.JointEnds[stop]++
	a.last = a.who[last]
	a.backoff = 1
	return memprot.JointOK
}

// maxJointBackoff caps the contended scans skipped after an engine-side
// joint refusal, so a refusal that clears is retried soon.
const maxJointBackoff = 64

// jointAdmit is the cheap half of the joint path's admission predicate,
// checked on every contended scan: a single-channel bus, and at least two
// machines gate-dominated — mid-instruction with their next issue at their
// own window's oldest clear, hence at or below the bus horizon. The other
// active machines bound the run by their earliest ready time; the engine's
// BeginJointRun checks the rest: strictly rising, tie-free window clears,
// no backfillable gap, q >= 1.
// //tnpu:guard //tnpu:pure
func jointAdmit(bus *dram.Bus, machines []*npu.Machine) memprot.JointStop {
	if bus.Channels() != 1 {
		return memprot.JointMultiChannel
	}
	dominated := 0
	for _, m := range machines {
		if ready, gate, ok := m.Gate(); ok && ready == gate {
			dominated++
		}
	}
	if dominated < 2 {
		return memprot.JointNotSaturated
	}
	return memprot.JointOK
}

// arbitrateBlocks is the retained block-granular reference: always serve
// one block to the machine whose next block is ready earliest; ties
// rotate so no NPU starves. The horizon-bounded loop above is pinned
// cycle- and stats-identical to this one by the differential harness and
// FuzzMultiVsBlock.
//
//tnpu:noalloc
func arbitrateBlocks(machines []*npu.Machine) {
	count := len(machines)
	last := 0
	for {
		best, bestReady := -1, ^uint64(0)
		for off := 1; off <= count; off++ {
			i := (last + off) % count
			ready, ok := machines[i].NextReady()
			if !ok {
				continue
			}
			if ready < bestReady {
				best, bestReady = i, ready
			}
		}
		if best < 0 {
			break
		}
		machines[best].ServeBlock()
		last = best
	}
}

// assemble flushes the engine and summarizes a finished run.
func assemble(scheme memprot.Scheme, eng memprot.Engine, machines []*npu.Machine) Result {
	res := Result{
		Scheme: scheme,
		PerNPU: make([]uint64, len(machines)),
		NPUs:   make([]NPUStats, len(machines)),
	}
	for i, m := range machines {
		res.PerNPU[i] = m.Cycles()
		res.NPUs[i] = NPUStats{
			Cycles:     m.Cycles(),
			Blocks:     m.BlocksMoved(),
			ReadBytes:  m.BlocksRead() * dram.BlockBytes,
			WriteBytes: m.BlocksWritten() * dram.BlockBytes,
			Runs:       m.RunsServed(),
		}
		if m.Cycles() > res.Cycles {
			res.Cycles = m.Cycles()
		}
	}
	eng.Flush(res.Cycles)
	res.Traffic = *eng.Traffic()
	res.Counter = *eng.CounterStats()
	res.Hash = *eng.HashStats()
	res.MAC = *eng.MACStats()
	return res
}
