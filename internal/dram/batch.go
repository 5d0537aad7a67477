package dram

// This file is the run-length batched fast path of the bus model. Both
// entry points are defined by exact equivalence to a per-block reference
// loop — same bus state (busyUntil, remainder, gaps, byte/cycle counters),
// same returned times — and fall back to literally running that loop
// whenever a closed form cannot be proven safe (multi-channel routing, a
// remembered idle gap a block could backfill, short runs, pathological
// rates). The closed forms rest on two exact identities:
//
//   - Remainder telescoping: the carried sub-cycle remainder makes n
//     per-block charges sum to one aggregate charge,
//     sum_i (B*num+rem_i)/den  ==  (n*B*num + rem_0) / den.
//   - Horizon monotonicity: once no remembered gap can hold a minimum-cost
//     block at the first ready time, no later (larger) ready time can fit
//     one either, so every block appends at the horizon.

// IssueWindow models a DMA engine's bounded outstanding-request window:
// request i may issue only once request i-depth has cleared its channel.
// The per-block and batched execution paths share one window instance so
// both see identical issue gating.
type IssueWindow struct {
	slots []uint64
	idx   int
}

// NewIssueWindow returns a window allowing depth outstanding requests.
func NewIssueWindow(depth int) *IssueWindow {
	if depth <= 0 {
		panic("dram: issue window depth must be positive")
	}
	return &IssueWindow{slots: make([]uint64, depth)}
}

// Note records a request's channel-clear time and returns the gate for the
// next request: the clear time of the request issued depth ago (zero while
// the window is still filling).
func (w *IssueWindow) Note(busFree uint64) uint64 {
	w.slots[w.idx] = busFree
	w.idx++
	if w.idx == len(w.slots) {
		w.idx = 0
	}
	return w.slots[w.idx]
}

// Depth returns the window's outstanding-request bound.
func (w *IssueWindow) Depth() int { return len(w.slots) }

// MaxSlot returns the latest channel-clear time held in the window — an
// upper bound on every gate the window can hand back before new requests
// overwrite its slots.
//
//tnpu:noalloc
func (w *IssueWindow) MaxSlot() uint64 {
	var max uint64
	for _, s := range w.slots {
		if s > max {
			max = s
		}
	}
	return max
}

// StreamRun issues n consecutive BlockBytes transfers starting at addr,
// gated by the issue window exactly as the per-block DMA loop does:
//
//	for i := 0; i < n; i++ {
//	    busFree := b.TransferAt(ready, addr+uint64(i)*BlockBytes, BlockBytes)
//	    lastIssue = ready
//	    if gate := w.Note(busFree); gate > ready+1 { ready = gate } else { ready++ }
//	}
//
// It returns the next issue-ready time, the maximum channel-clear time over
// the run, and the issue time of the last block. Bus and window state after
// the call are identical to the reference loop's; on a single channel the
// common dense-stream case completes in O(window depth) instead of O(n).
func (b *Bus) StreamRun(ready, addr uint64, n int, w *IssueWindow) (nextReady, maxBusFree, lastIssue uint64) {
	if n <= 0 {
		return ready, 0, ready
	}
	if len(b.chans) == 1 {
		if nr, mb, li, ok := b.chans[0].streamClosed(ready, n, w); ok {
			return nr, mb, li
		}
	}
	r := ready
	for i := 0; i < n; i++ {
		busFree := b.route(addr+uint64(i)*BlockBytes).transfer(r, BlockBytes)
		if busFree > maxBusFree {
			maxBusFree = busFree
		}
		lastIssue = r
		gate := w.Note(busFree)
		r++
		if gate > r {
			r = gate
		}
	}
	return r, maxBusFree, lastIssue
}

// streamClosed is the single-channel closed form of StreamRun. ok=false
// means no state was touched and the caller must run the reference loop.
func (c *channel) streamClosed(ready uint64, n int, w *IssueWindow) (nextReady, maxBusFree, lastIssue uint64, ok bool) {
	depth := len(w.slots)
	if !c.batchable(ready, uint64(n)) {
		return 0, 0, 0, false
	}
	b0 := c.busyUntil
	start0 := b0
	if ready > start0 {
		start0 = ready
	}
	rem0 := c.rem
	// busFreeAt(i) is the channel-clear time of block i under appending
	// service: the telescoped sum of the first i+1 per-block charges.
	busFreeAt := func(i int) uint64 {
		return start0 + (uint64(i+1)*BlockBytes*c.num+rem0)/c.den
	}
	// Prologue: while gates still come from pre-run window entries, verify
	// each issue time stays at or below the bus horizon — otherwise the
	// per-block loop would open an idle gap mid-run and the closed form is
	// invalid. Block i's gate is the pre-run slot the ring hands back,
	// slots[(idx+i)%depth], untouched until write i catches up with it.
	r := ready
	pro := depth
	if n < pro {
		pro = n
	}
	// Division-free lower bound on busFreeAt(i-1): block costs are at least
	// cLo cycles each (batchable verified cLo >= 1), so busFreeAt(i-1) >=
	// busFreeAt(0) + (i-1)*cLo. The exact division only runs when the cheap
	// bound cannot already prove r in range.
	f0 := busFreeAt(0)
	cLo := BlockBytes * c.num / c.den
	pos := w.idx
	for i := 1; i < pro; i++ {
		pos++
		if pos == depth {
			pos = 0
		}
		gate := w.slots[pos]
		r++
		if gate > r {
			r = gate
		}
		if r > f0+uint64(i-1)*cLo && r > busFreeAt(i-1) {
			return 0, 0, 0, false
		}
	}
	if n > depth {
		// Saturated regime: for i >= depth the gate is busFreeAt(i-depth), so
		// r_i = max(busFreeAt(i-depth), r_{i-1}+1). Because consecutive
		// busFreeAt values differ by at least one cycle (batchable checked the
		// per-block cost floor >= 1), the unrolled max collapses to two terms
		// and r_i <= busFreeAt(i-1) holds inductively — no gap is ever opened.
		rLast := busFreeAt(n - 1 - depth)
		if alt := r + uint64(n-depth); alt > rLast {
			rLast = alt
		}
		lastIssue = rLast
		nextReady = busFreeAt(n - depth)
		if rLast+1 > nextReady {
			nextReady = rLast + 1
		}
	} else {
		// Short run: every gate came from a pre-run window entry, so the
		// prologue computed the final issue time directly. The gate for the
		// block after the run is the slot the ring lands on: still a pre-run
		// entry when n < depth, block 0's own clear time when n == depth.
		lastIssue = r
		gate := busFreeAt(0)
		if n < depth {
			gate = w.slots[(w.idx+n)%depth]
		}
		nextReady = r + 1
		if gate > nextReady {
			nextReady = gate
		}
	}
	// Commit channel state: one telescoped charge for all n blocks.
	ticks := uint64(n)*BlockBytes*c.num + rem0
	cycles := ticks / c.den
	c.rem = ticks % c.den
	c.bytesMoved += uint64(n) * BlockBytes
	c.busyCycles += cycles
	if ready > b0 {
		// Block 0 skipped over an idle window, as in the reference loop.
		c.recordGap(b0, ready)
	}
	c.busyUntil = start0 + cycles
	// The window now holds the clear times of the last min(n, depth) blocks,
	// at the ring positions the reference loop would have written them to.
	lo := n - depth
	if lo < 0 {
		lo = 0
	}
	pos = (w.idx + lo) % depth
	for k := lo; k < n; k++ {
		w.slots[pos] = busFreeAt(k)
		pos++
		if pos == depth {
			pos = 0
		}
	}
	w.idx = (w.idx + n) % depth
	return nextReady, busFreeAt(n - 1), lastIssue, true
}

// batchable reports whether n consecutive block transfers at or after ready
// can be served in closed form on this channel: the arithmetic cannot
// overflow, the per-block cost floor is at least one cycle, and no
// remembered idle gap could hold a minimum-cost block (gap fitting only
// gets harder as ready grows, so checking the floor at the earliest ready
// covers every block of the run).
func (c *channel) batchable(ready, n uint64) bool {
	if (n+1)*BlockBytes > (1<<62)/c.num {
		return false
	}
	cLo := BlockBytes * c.num / c.den
	if cLo == 0 {
		return false
	}
	if ready >= c.maxGapEnd {
		// Every gap closes at or before ready, and cLo >= 1, so no block
		// of the run can start inside one.
		return true
	}
	for _, g := range c.gaps {
		s := g.start
		if ready > s {
			s = ready
		}
		if s+cLo <= g.end {
			return false
		}
	}
	return true
}

// TransferRunAt occupies the bus for nBlocks consecutive BlockBytes
// transfers, all presented at the same ready time — exactly equivalent to
// nBlocks TransferAt calls on consecutive block addresses — and returns the
// completion time of the last block. Channel-interleaved addressing is
// honoured; each channel's share is charged in closed form with exact
// rational remainder carry when possible, falling back to per-block
// service otherwise.
func (b *Bus) TransferRunAt(ready, addr uint64, nBlocks int) (done uint64) {
	if nBlocks <= 0 {
		return ready
	}
	n := uint64(nBlocks)
	nc := uint64(len(b.chans))
	first := addr / BlockBytes
	lastChan := (first + n - 1) % nc
	for k := uint64(0); k < nc && k < n; k++ {
		ch := &b.chans[(first+k)%nc]
		cnt := (n - k + nc - 1) / nc
		d := ch.sameReadyRun(ready, cnt)
		if (first+k)%nc == lastChan {
			done = d
		}
	}
	return done
}

// sameReadyRun charges m block transfers presented at one ready time.
func (c *channel) sameReadyRun(ready, m uint64) (lastDone uint64) {
	if m == 0 {
		return ready
	}
	if !c.batchable(ready, m) {
		for i := uint64(0); i < m; i++ {
			lastDone = c.transfer(ready, BlockBytes)
		}
		return lastDone
	}
	b0 := c.busyUntil
	start := b0
	if ready > start {
		start = ready
	}
	ticks := m*BlockBytes*c.num + c.rem
	cycles := ticks / c.den
	c.rem = ticks % c.den
	c.bytesMoved += m * BlockBytes
	c.busyCycles += cycles
	if ready > b0 {
		c.recordGap(b0, ready)
	}
	c.busyUntil = start + cycles
	return c.busyUntil
}

// Oldest returns the clear time of the oldest outstanding request — the
// gate the next request waits for.
//
//tnpu:pure
func (w *IssueWindow) Oldest() uint64 { return w.slots[w.idx] }
