package e2e

import (
	"tnpu/internal/dram"
	"tnpu/internal/isa"
	"tnpu/internal/memprot"
	"tnpu/internal/npu"
	"tnpu/internal/tensor"
)

// tensorIO streams whole tensors between the CPU enclave and the NPU
// region through the ts_write_block / ts_read_block path (Sec. IV-C). The
// reference steps one block at a time, each issued once the previous one
// has cleared the bus. When a block occupies the bus for at least one
// cycle, that rule is a depth-1 DMA issue window: the next block issues at
// max(gate, r+1), and the gate (the previous block's clear) is at least
// r+1. A tensor then goes through the engine's run path as a one-segment
// instruction. Sub-cycle blocks, engines without a run path, and
// npu.ForcePerBlock keep the block loop.
type tensorIO struct {
	eng memprot.Engine
	run memprot.RunEngine // nil: step the block loop
	w   *dram.IssueWindow
	seg [1]isa.Segment
}

func newTensorIO(eng memprot.Engine, bus *dram.Bus) *tensorIO {
	tio := &tensorIO{eng: eng}
	if re, ok := eng.(memprot.RunEngine); ok && !npu.PerBlockForced() && bus.BlockCyclesFloor() >= 1 {
		tio.run, tio.w = re, dram.NewIssueWindow(1)
	}
	return tio
}

// segment describes ten's blocks as a one-segment instruction.
func (tio *tensorIO) segment(ten tensor.Tensor) []isa.Segment {
	tio.seg[0] = isa.Segment{Addr: ten.Addr &^ (dram.BlockBytes - 1), Bytes: ten.Blocks() * dram.BlockBytes}
	return tio.seg[:]
}

// write streams ten into the NPU region from time t under version 1 and
// returns when its last block has cleared the bus.
func (tio *tensorIO) write(t uint64, ten tensor.Tensor) uint64 {
	n := ten.Blocks()
	if tio.run == nil || n == 0 {
		for blk := uint64(0); blk < n; blk++ {
			busFree, _ := tio.eng.WriteBlock(t, ten.Addr+blk*dram.BlockBytes, 1)
			t = busFree
		}
		return t
	}
	segs := tio.segment(ten)
	next, _ := tio.run.WriteRun(t, segs, segs[0].Addr, 0, 1, tio.w)
	return next
}

// read streams ten back to the enclave from time issue and returns when
// its last block is available (issue itself for an empty tensor).
func (tio *tensorIO) read(issue uint64, ten tensor.Tensor) uint64 {
	done := issue
	n := ten.Blocks()
	if tio.run == nil || n == 0 {
		for blk := uint64(0); blk < n; blk++ {
			busFree, dataAt := tio.eng.ReadBlock(issue, ten.Addr+blk*dram.BlockBytes, 1)
			issue = busFree
			if dataAt > done {
				done = dataAt
			}
		}
		return done
	}
	segs := tio.segment(ten)
	if _, dataAt := tio.run.ReadRun(issue, segs, segs[0].Addr, 0, 1, tio.w); dataAt > done {
		done = dataAt
	}
	return done
}
