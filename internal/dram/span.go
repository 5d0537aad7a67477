package dram

// This file lifts the streak fast path from per-block to per-span cost: a
// SpanCursor is a RunCursor that defers the issue-window bookkeeping. The
// RunCursor's ChargeDataSpan is exact but still O(span) — every data block
// writes its clear time into the window ring so later gates can read it.
// The SpanCursor exploits that past the window prologue every gate is an
// in-run data clear, which is pure arithmetic: the clear of the run's j-th
// charge is
//
//	C(j) = clear0 + j*q + (j*rr + rem0) / den
//
// (remainder telescoping), so instead of materializing clears in the ring
// it remembers, per span, how data-block indices map to charge indices and
// answers gate queries from the formula. The window ring is written once,
// at Commit, with the clears of the final depth data blocks — the only
// entries the reference loop would leave behind.
//
// Two identities carry the equivalence (DESIGN.md section 6e):
//
//   - Generalized two-term collapse. Past the prologue, for ANY
//     interleaving of data spans and metadata charges, the per-block issue
//     recursion r_i = max(r_{i-1}+1, D(g_i - depth)) unrolls across span
//     boundaries to
//     lastIssue = max(r0 + k - 1, D(gEnd - 1 - depth))
//     nextR     = max(lastIssue + 1, D(gEnd - depth))
//     because consecutive data clears differ by at least one cycle (the
//     per-block cost floor q >= 1 verified at BeginRun; interleaved
//     metadata only widens the difference). D(g) is the clear time of the
//     g-th data block, i.e. C at its charge index.
//   - Charge-index bookkeeping. D(g) needs the charge index of data block
//     g, which depends on how data and metadata interleaved. Gate queries
//     only ever reach back depth data blocks, so a short FIFO of span
//     records — first data index, charge index, period shape — answers
//     them in O(1) amortized.
type SpanCursor struct {
	cur    RunCursor
	w      *IssueWindow
	idx0   int    // w.idx at Begin
	clear0 uint64 // horizon at Begin (C(0))
	rem0   uint64 // carried remainder at Begin
	g      uint64 // data blocks charged so far
	j      uint64 // total charges (blocks) so far
	fifo   []spanRec
	head   int // ring index of the oldest record
	cnt    int // live records
	look   int // monotone query cursor, offset from head
}

// spanRec maps a contiguous range of data-block indices to charge indices.
// The range holds n data blocks grouped in periods of m, each period
// preceded by lead and followed by trail metadata charges; a plain span is
// the single-period case (m == n, lead == trail == 0).
type spanRec struct {
	g     uint64 // first data block index covered
	j     uint64 // charges before the record's first period
	n     uint32 // total data blocks covered
	m     uint32 // data blocks per period
	lead  uint32 // metadata charges before each period's data
	trail uint32 // metadata charges after each period's data
}

// BeginSpanRun validates the append invariant exactly as BeginRun and
// primes sc for span-deferred charging. On false no state was touched.
// It is the admission predicate of the streak fast paths. //tnpu:guard
// The cursor's record FIFO is retained across runs, so a long-lived
// engine-owned SpanCursor allocates only on first use (or a deeper
// window).
func (b *Bus) BeginSpanRun(sc *SpanCursor, w *IssueWindow, ready uint64, maxBlocks int) bool {
	if !b.BeginRun(&sc.cur, w, ready, maxBlocks) {
		return false
	}
	sc.w = w
	sc.idx0 = w.idx
	sc.clear0 = sc.cur.clear
	sc.rem0 = sc.cur.remAcc
	sc.g, sc.j = 0, 0
	sc.head, sc.cnt, sc.look = 0, 0, 0
	// Retained records all intersect the trailing depth data blocks, and
	// records are disjoint with at least one block each, so depth+2 slots
	// never overflow (one partial head record, depth covered blocks, the
	// incoming record).
	if need := len(w.slots) + 2; cap(sc.fifo) < need {
		sc.fifo = make([]spanRec, need) //tnpu:allocok
	}
	sc.fifo = sc.fifo[:cap(sc.fifo)]
	return true
}

// clearAt is C(j): the channel horizon after the run's first j charges.
// Exact by remainder telescoping; overflow is excluded by the batchable
// check at BeginRun (j never exceeds maxBlocks).
func (sc *SpanCursor) clearAt(j uint64) uint64 {
	c, _ := sc.clearRemAt(j)
	return c
}

// clearRemAt is C(j) together with its carried remainder numerator,
// (j*rr + rem0) mod den, from one division — none on a whole-cycle rate
// (rr == 0), where no remainder ever carries.
func (sc *SpanCursor) clearRemAt(j uint64) (clear, rem uint64) {
	if sc.cur.rr == 0 {
		return sc.clear0 + j*sc.cur.q, sc.rem0
	}
	x := j*sc.cur.rr + sc.rem0
	return sc.clear0 + j*sc.cur.q + x/sc.cur.den, x % sc.cur.den
}

// push records a data range, dropping records that can no longer be
// queried (entirely below the gate window after this record lands).
func (sc *SpanCursor) push(rec spanRec) {
	depth := uint64(len(sc.w.slots))
	if end := rec.g + uint64(rec.n); end > depth {
		// The oldest query after this record lands is for data block
		// end-1-depth, so records whose last block is below that may drop.
		min := end - depth
		for sc.cnt > 0 {
			h := &sc.fifo[sc.head]
			if h.g+uint64(h.n) >= min {
				break
			}
			sc.head++
			if sc.head == len(sc.fifo) {
				sc.head = 0
			}
			sc.cnt--
			if sc.look > 0 {
				sc.look--
			}
		}
	}
	p := sc.head + sc.cnt
	if p >= len(sc.fifo) {
		p -= len(sc.fifo)
	}
	sc.fifo[p] = rec
	sc.cnt++
}

// dataClear is D(g): the clear time of the g-th data block (0-indexed).
func (sc *SpanCursor) dataClear(g uint64) uint64 {
	rec, off := sc.find(g)
	return sc.clearAt(rec.charge(off))
}

// dataClears is D(g) and D(g+1) — the two gates every Data call asks
// for — from one record walk and one division: when both blocks lie in
// one record's period their charges are consecutive, so D(g+1) is one
// more block charge on top of D(g).
func (sc *SpanCursor) dataClears(g uint64) (d0, d1 uint64) {
	rec, off := sc.find(g)
	j := rec.charge(off)
	d0, rem := sc.clearRemAt(j)
	if off+1 >= uint64(rec.n) {
		return d0, sc.dataClear(g + 1)
	}
	if j1 := rec.charge(off + 1); j1 != j+1 {
		return d0, sc.clearAt(j1)
	}
	d1 = d0 + sc.cur.q
	if rem+sc.cur.rr >= sc.cur.den {
		d1++
	}
	return d0, d1
}

// find returns the record holding data block g and g's offset in it.
// Queries are non-decreasing across calls, so a persistent cursor walks
// the FIFO in O(1) amortized; a backward query resets it (never happens
// on the hot path).
func (sc *SpanCursor) find(g uint64) (*spanRec, uint64) {
	for {
		p := sc.head + sc.look
		if p >= len(sc.fifo) {
			p -= len(sc.fifo)
		}
		rec := &sc.fifo[p]
		if g < rec.g {
			if sc.look == 0 {
				panic("dram: SpanCursor gate query below retained records")
			}
			sc.look = 0
			continue
		}
		if off := g - rec.g; off < uint64(rec.n) {
			return rec, off
		}
		sc.look++
		if sc.look >= sc.cnt {
			panic("dram: SpanCursor gate query above recorded data blocks")
		}
	}
}

// charge returns the charge index (1-based) of the record's off-th data
// block.
func (rec *spanRec) charge(off uint64) uint64 {
	if rec.lead == 0 && rec.trail == 0 {
		return rec.j + off + 1 // plain span or metadata-free periods
	}
	period, o := off/uint64(rec.m), off%uint64(rec.m)
	return rec.j + period*uint64(rec.m+rec.lead+rec.trail) + uint64(rec.lead) + o + 1
}

// Meta appends k metadata block charges at the horizon, returning the new
// horizon — identical to RunCursor.Charge.
func (sc *SpanCursor) Meta(k int) uint64 {
	sc.j += uint64(k)
	return sc.cur.Charge(k)
}

// Data appends k issue-window-gated data blocks presented starting at
// issue time r and returns the last block's clear time, its issue time,
// and the next issue time — the ChargeDataSpan contract, in O(1) past the
// window prologue (prologue blocks take the exact per-block update, whose
// gates come from pre-run ring entries).
func (sc *SpanCursor) Data(r uint64, k int) (lastFree, lastIssue, nextR uint64) {
	depth := len(sc.w.slots)
	if sc.g < uint64(depth) {
		pre := depth - int(sc.g)
		if pre > k {
			pre = k
		}
		sc.push(spanRec{g: sc.g, j: sc.j, n: uint32(pre), m: uint32(pre)})
		for i := 0; i < pre; i++ {
			lastIssue = r
			lastFree, r = sc.cur.ChargeData(sc.w, r)
		}
		sc.g += uint64(pre)
		sc.j += uint64(pre)
		if k -= pre; k == 0 {
			return lastFree, lastIssue, r
		}
	}
	sc.push(spanRec{g: sc.g, j: sc.j, n: uint32(k), m: uint32(k)})
	lastFree = sc.cur.Charge(k)
	sc.g += uint64(k)
	sc.j += uint64(k)
	lastIssue = r + uint64(k-1)
	gl, ng := sc.dataClears(sc.g - 1 - uint64(depth))
	if gl > lastIssue {
		lastIssue = gl
	}
	nextR = lastIssue + 1
	if ng > nextR {
		nextR = ng
	}
	return lastFree, lastIssue, nextR
}

// DataPeriodic appends `periods` repetitions of [lead metadata charges,
// m data blocks, trail metadata charges] in O(1) — the uniform-stretch
// collapse the protection engines use once a cold cache sweep has entered
// steady-state turnover (every line misses with the same writeback
// pattern). r is the issue time entering the first period's data span.
// Returns the FINAL period's last data-block clear, its issue time, and
// the next issue time; the horizon after the final trailing metadata is
// Horizon(). ok is false — with no state touched — when the cursor is
// still in its window prologue, where per-block gates are not yet
// arithmetic.
func (sc *SpanCursor) DataPeriodic(r uint64, periods, m, lead, trail int) (lastFree, lastIssue, nextR uint64, ok bool) {
	depth := uint64(len(sc.w.slots))
	if sc.g < depth || periods <= 0 || m <= 0 {
		return 0, 0, 0, false
	}
	totalData := uint64(periods) * uint64(m)
	sc.push(spanRec{g: sc.g, j: sc.j, n: uint32(totalData), m: uint32(m), lead: uint32(lead), trail: uint32(trail)})
	sc.cur.Charge(periods * (m + lead + trail))
	sc.g += totalData
	sc.j += uint64(periods) * uint64(m+lead+trail)
	lastIssue = r + totalData - 1
	gl, ng := sc.dataClears(sc.g - 1 - depth)
	if gl > lastIssue {
		lastIssue = gl
	}
	nextR = lastIssue + 1
	if ng > nextR {
		nextR = ng
	}
	lastFree = sc.dataClear(sc.g - 1)
	return lastFree, lastIssue, nextR, true
}

// Horizon returns the clear time of the cursor's last charge.
func (sc *SpanCursor) Horizon() uint64 { return sc.cur.Horizon() }

// Blocks returns the number of blocks charged so far.
func (sc *SpanCursor) Blocks() int { return sc.cur.Blocks() }

// Data blocks charged so far (window-gated ones).
func (sc *SpanCursor) DataBlocks() uint64 { return sc.g }

// Commit materializes the deferred window state — the ring holds the
// clears of the final depth data blocks at the positions the reference
// loop would have written them — and commits the channel aggregate.
func (sc *SpanCursor) Commit() {
	depth := len(sc.w.slots)
	if sc.g >= uint64(depth) {
		// Prologue blocks among the final depth were already written by
		// ChargeData; rewriting them from the formula is a no-op by the
		// telescoping identity.
		start := sc.g - uint64(depth)
		sc.look = 0
		for t := 0; t < depth; t++ {
			gg := start + uint64(t)
			sc.w.slots[(sc.idx0+int(gg))%depth] = sc.dataClear(gg)
		}
		sc.w.idx = (sc.idx0 + int(sc.g)) % depth
	}
	sc.cur.Commit()
}
