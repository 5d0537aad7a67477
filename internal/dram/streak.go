package dram

// This file extends the batched fast path across metadata-line streaks: a
// RunCursor lets a protection engine charge an arbitrary interleaving of
// data blocks (issue-window gated) and metadata blocks (writebacks, line
// fetches, tree-walk reads) against one channel in append-only closed form,
// committing the aggregate channel update once at the end. It generalizes
// StreamRun — which only handles pure data runs — to the secure schemes'
// mixed charge sequences, resting on the same two identities (remainder
// telescoping and horizon monotonicity) plus one new invariant proven at
// BeginRun:
//
//   Append invariant. With a single channel, a per-block cost floor of at
//   least one cycle, no remembered idle gap that can hold a minimum-cost
//   block, and every issue-window slot at or below the start horizon
//   start0 = max(ready, busyUntil), every charge of the run is presented
//   at or below the current horizon and therefore appends: by induction
//   the i-th data block's issue time r_i satisfies r_i <= clear(i) (its
//   gate is either a pre-run slot <= start0 or an earlier block's clear,
//   and consecutive data clears differ by >= 1 cycle), and metadata
//   charges are presented at the issue time of an already-charged data
//   boundary. The reference loop would thus never record a mid-run gap
//   nor backfill one, so skipping both reproduces its channel state
//   exactly.

// RunCursor accumulates one streak's charges against a single channel.
// Between BeginRun and Commit the caller must route every bus charge
// through the cursor; Commit then writes the telescoped aggregate back as
// if each charge had gone through channel.transfer individually.
type RunCursor struct {
	ch     *channel
	ready0 uint64 // presented ready time of the first charge
	b0     uint64 // channel horizon at BeginRun
	q      uint64 // whole cycles per block: BlockBytes*num/den (>= 1)
	rr     uint64 // per-block remainder numerator: BlockBytes*num%den
	den    uint64
	remAcc uint64 // carried remainder numerator, < den
	clear  uint64 // horizon after the charges so far (start0 before any)
	blocks uint64 // total blocks charged
	data   int    // data blocks charged (window-gated ones)
}

// BeginRun validates the append invariant for a streak of at most
// maxBlocks block charges presented at or after ready, and primes cur.
// On false no state was touched and the caller must use the per-block or
// per-line path. maxBlocks only bounds overflow, so a generous upper
// bound (data plus worst-case metadata) is fine.
func (b *Bus) BeginRun(cur *RunCursor, w *IssueWindow, ready uint64, maxBlocks int) bool {
	if len(b.chans) != 1 || maxBlocks <= 0 {
		return false
	}
	c := &b.chans[0]
	if !c.batchable(ready, uint64(maxBlocks)) {
		return false
	}
	start0 := c.busyUntil
	if ready > start0 {
		start0 = ready
	}
	// Window slots hold clear times of past transfers on this channel, so
	// they never exceed the horizon; the explicit check keeps the append
	// proof local rather than resting on every caller's history.
	for _, s := range w.slots {
		if s > start0 {
			return false
		}
	}
	*cur = RunCursor{
		ch:     c,
		ready0: ready,
		b0:     c.busyUntil,
		q:      BlockBytes * c.num / c.den,
		rr:     BlockBytes * c.num % c.den,
		den:    c.den,
		remAcc: c.rem,
		clear:  start0,
	}
	return true
}

// Charge appends k block transfers at the horizon and returns the new
// horizon (the clear time of the last of the k blocks). Used for metadata
// charges, whose presented ready time — the current boundary's issue time —
// is at or below the horizon by the append invariant and therefore never
// affects channel state.
func (cur *RunCursor) Charge(k int) uint64 {
	if k == 1 {
		cur.remAcc += cur.rr
		cur.clear += cur.q
		if cur.remAcc >= cur.den {
			cur.remAcc -= cur.den
			cur.clear++
		}
		cur.blocks++
		return cur.clear
	}
	if cur.rr == 0 {
		// Whole-cycle blocks: the carried remainder never grows.
		cur.clear += uint64(k) * cur.q
		cur.blocks += uint64(k)
		return cur.clear
	}
	t := uint64(k)*cur.rr + cur.remAcc
	cur.clear += uint64(k)*cur.q + t/cur.den
	cur.remAcc = t % cur.den
	cur.blocks += uint64(k)
	return cur.clear
}

// ChargeData appends one issue-window-gated data block presented at issue
// time r: the block's clear time enters the window (exactly as the
// reference loop's w.Note(busFree)) and the returned next issue time
// applies the max(gate, r+1) update. Division-free.
func (cur *RunCursor) ChargeData(w *IssueWindow, r uint64) (busFree, nextR uint64) {
	cur.remAcc += cur.rr
	cur.clear += cur.q
	if cur.remAcc >= cur.den {
		cur.remAcc -= cur.den
		cur.clear++
	}
	cur.blocks++
	cur.data++
	w.slots[w.idx] = cur.clear
	w.idx++
	if w.idx == len(w.slots) {
		w.idx = 0
	}
	gate := w.slots[w.idx]
	nextR = r + 1
	if gate > nextR {
		nextR = gate
	}
	return cur.clear, nextR
}

// ChargeDataSpan appends k consecutive data blocks, the all-hit span fast
// path: once the streak is past its issue-window prologue (every gate comes
// from an in-streak data block, so consecutive gates differ by >= 1 cycle),
// the unrolled per-block max collapses to two terms exactly as in
// streamClosed, and the whole span costs one division regardless of k.
// Returns the last block's clear time, its issue time, and the next issue
// time — the values the secure schemes' covered-block timing formulas need.
func (cur *RunCursor) ChargeDataSpan(w *IssueWindow, r uint64, k int) (lastFree, lastIssue, nextR uint64) {
	depth := len(w.slots)
	// Prologue blocks (gates from pre-streak slots, which need not be
	// monotone) take the exact per-block update.
	if pre := depth - cur.data; pre > 0 {
		if pre > k {
			pre = k
		}
		for j := 0; j < pre; j++ {
			lastIssue = r
			lastFree, r = cur.ChargeData(w, r)
		}
		if k -= pre; k == 0 {
			return lastFree, lastIssue, r
		}
	}
	// Past the prologue every gate is an in-streak data clear, and
	// consecutive data clears differ by >= 1 cycle even across metadata
	// interleavings, so the unrolled per-block max collapses to two terms
	// for ANY span length: r_{k-1} = max(r + k - 1, gateLast) with gateLast
	// the clear of the data block issued depth before the span's last.
	if k < depth {
		// That block predates the span; its clear is live in the ring at the
		// position the span's last write will land on.
		gateLast := w.slots[(w.idx+k-1)%depth]
		cJ, remJ := cur.clear, cur.remAcc
		pos := w.idx
		for j := 0; j < k; j++ {
			remJ += cur.rr
			cJ += cur.q
			if remJ >= cur.den {
				remJ -= cur.den
				cJ++
			}
			w.slots[pos] = cJ
			pos++
			if pos == depth {
				pos = 0
			}
		}
		w.idx = pos
		cur.clear = cJ
		cur.remAcc = remJ
		cur.blocks += uint64(k)
		cur.data += k
		lastIssue = r + uint64(k-1)
		if gateLast > lastIssue {
			lastIssue = gateLast
		}
		nextR = lastIssue + 1
		if g := w.slots[pos]; g > nextR {
			nextR = g
		}
		return cJ, lastIssue, nextR
	}
	// Long spans: jump the charge state over the first k-depth blocks with
	// one division, then walk the final depth blocks incrementally, writing
	// their clears into the window ring at the positions the per-block loop
	// would have used.
	cJ, remJ := cur.clear, cur.remAcc
	var gateLast uint64 // clear of the data block depth before the last span block
	if jump := k - depth; jump > 0 {
		t := uint64(jump)*cur.rr + remJ
		cJ += uint64(jump)*cur.q + t/cur.den
		remJ = t % cur.den
		gateLast = cJ // == clearAt(k-depth-1)
	} else {
		// k == depth: that block predates the span; its clear is the slot the
		// per-block loop wrote most recently.
		gateLast = w.slots[(w.idx+depth-1)%depth]
	}
	pos := (w.idx + k - depth) % depth
	var nextGate uint64 // clearAt(k-depth), the gate for the block after the span
	for j := 0; j < depth; j++ {
		remJ += cur.rr
		cJ += cur.q
		if remJ >= cur.den {
			remJ -= cur.den
			cJ++
		}
		if j == 0 {
			nextGate = cJ
		}
		w.slots[pos] = cJ
		pos++
		if pos == depth {
			pos = 0
		}
	}
	w.idx = (w.idx + k) % depth
	cur.clear = cJ
	cur.remAcc = remJ
	cur.blocks += uint64(k)
	cur.data += k
	// Two-term collapse: r_{k-1} = max(gateLast, r + k - 1); the gate for
	// the following block is clearAt(k-depth).
	lastIssue = r + uint64(k-1)
	if gateLast > lastIssue {
		lastIssue = gateLast
	}
	nextR = lastIssue + 1
	if nextGate > nextR {
		nextR = nextGate
	}
	return cJ, lastIssue, nextR
}

// Horizon returns the clear time of the cursor's last charge (the start
// horizon before any charge).
func (cur *RunCursor) Horizon() uint64 { return cur.clear }

// Blocks returns the number of blocks charged so far.
func (cur *RunCursor) Blocks() int { return int(cur.blocks) }

// Commit writes the accumulated charges back to the channel as one
// telescoped aggregate — byte, busy-cycle, remainder, gap, and horizon
// state identical to per-block service. A cursor with no charges commits
// as a no-op (the reference would not have touched the bus either).
func (cur *RunCursor) Commit() {
	if cur.blocks == 0 {
		return
	}
	c := cur.ch
	c.rem = cur.remAcc
	c.bytesMoved += cur.blocks * BlockBytes
	start0 := cur.b0
	if cur.ready0 > start0 {
		start0 = cur.ready0
		// The first charge skipped over an idle window, as in the reference.
		c.recordGap(cur.b0, cur.ready0)
	}
	c.busyCycles += cur.clear - start0
	c.busyUntil = cur.clear
	cur.blocks = 0
	cur.ch = nil
}
