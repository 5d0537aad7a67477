package dram

import (
	"fmt"

	"tnpu/internal/canon"
)

// This file canonicalizes bus and issue-window state for layer-signature
// memoization (DESIGN.md §6e). All absolute cycle times are encoded relative
// to a caller-supplied base (the machine's DMA-ready time at the layer
// boundary) with wrapping subtraction: the simulation is time-shift
// invariant — every bus decision compares times or takes maxima — so two
// states that differ only by a uniform shift canonicalize identically and a
// memoized layer recorded at one absolute time replays exactly at another.

// AppendCanon appends the bus's behavioural state: configuration (latency,
// per-channel rate) plus every channel's horizon, carried remainder, and
// remembered idle gaps, base-relative. Byte/cycle accumulators are handled
// by AppendAccum/AddAccum.
func (b *Bus) AppendCanon(dst []byte, base uint64) []byte {
	dst = canon.AppendU64(dst, b.latency)
	dst = canon.AppendU64(dst, uint64(len(b.chans)))
	for i := range b.chans {
		c := &b.chans[i]
		dst = canon.AppendU64(dst, c.num)
		dst = canon.AppendU64(dst, c.den)
		dst = canon.AppendU64(dst, c.busyUntil-base)
		dst = canon.AppendU64(dst, c.rem)
		dst = canon.AppendU64(dst, c.maxGapEnd-base)
		dst = canon.AppendU64(dst, uint64(len(c.gaps)))
		for _, g := range c.gaps {
			dst = canon.AppendU64(dst, g.start-base)
			dst = canon.AppendU64(dst, g.end-base)
		}
	}
	return dst
}

// RestoreCanon rebuilds the bus's behavioural state from an AppendCanon
// blob, shifting times by base, and returns the remaining bytes. The
// receiver's configuration must match the blob's.
func (b *Bus) RestoreCanon(src []byte, base uint64) []byte {
	var lat, nch uint64
	lat, src = canon.U64(src)
	nch, src = canon.U64(src)
	if lat != b.latency || int(nch) != len(b.chans) {
		panic(fmt.Sprintf("dram: canon bus config (latency=%d chans=%d) does not match (latency=%d chans=%d)",
			lat, nch, b.latency, len(b.chans)))
	}
	for i := range b.chans {
		c := &b.chans[i]
		var num, den, v, ng uint64
		num, src = canon.U64(src)
		den, src = canon.U64(src)
		if num != c.num || den != c.den {
			panic(fmt.Sprintf("dram: canon channel rate %d/%d does not match %d/%d", num, den, c.num, c.den))
		}
		v, src = canon.U64(src)
		c.busyUntil = v + base
		c.rem, src = canon.U64(src)
		v, src = canon.U64(src)
		c.maxGapEnd = v + base
		ng, src = canon.U64(src)
		c.gaps = c.gaps[:0]
		c.wide = 0
		for k := uint64(0); k < ng; k++ {
			var s, e uint64
			s, src = canon.U64(src)
			e, src = canon.U64(src)
			c.gaps = append(c.gaps, gap{s + base, e + base})
			c.markWide(len(c.gaps) - 1)
		}
	}
	return src
}

// AppendAccum appends the per-channel byte and busy-cycle accumulators.
func (b *Bus) AppendAccum(dst []byte) []byte {
	for i := range b.chans {
		dst = canon.AppendU64(dst, b.chans[i].bytesMoved)
		dst = canon.AppendU64(dst, b.chans[i].busyCycles)
	}
	return dst
}

// AddAccum adds an accumulator delta blob into the bus's counters and
// returns the remaining bytes.
func (b *Bus) AddAccum(src []byte) []byte {
	for i := range b.chans {
		var v uint64
		v, src = canon.U64(src)
		b.chans[i].bytesMoved += v
		v, src = canon.U64(src)
		b.chans[i].busyCycles += v
	}
	return src
}

// AppendCanon appends the window's slots base-relative in ring order from
// the cursor, so two windows holding the same outstanding clear times
// canonicalize identically regardless of cursor rotation.
func (w *IssueWindow) AppendCanon(dst []byte, base uint64) []byte {
	dst = canon.AppendU64(dst, uint64(len(w.slots)))
	pos := w.idx
	for range w.slots {
		dst = canon.AppendU64(dst, w.slots[pos]-base)
		pos++
		if pos == len(w.slots) {
			pos = 0
		}
	}
	return dst
}

// RestoreCanon rebuilds the window from an AppendCanon blob (cursor reset
// to zero — rotation is behaviourally irrelevant) and returns the rest.
func (w *IssueWindow) RestoreCanon(src []byte, base uint64) []byte {
	var depth uint64
	depth, src = canon.U64(src)
	if int(depth) != len(w.slots) {
		panic(fmt.Sprintf("dram: canon window depth %d does not match %d", depth, len(w.slots)))
	}
	w.idx = 0
	for i := range w.slots {
		var v uint64
		v, src = canon.U64(src)
		w.slots[i] = v + base
	}
	return src
}
