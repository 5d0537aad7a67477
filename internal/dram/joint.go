package dram

// This file generalizes SpanCursor from one client to k co-tenant clients
// sharing one channel: the joint FIFO period of a saturated contended
// window (DESIGN.md section 6f, "Joint FIFO periods").
//
// With the bus saturated, every client's next issue time is its own gate —
// the clear time of its block from one window depth earlier — and every
// gate is the clear of an appended charge. Clears rise strictly with the
// global charge index, so the earliest-ready client is always the one
// owning the oldest outstanding block: the serve order is one global FIFO
// of depth*k tokens that rotates forever, token T going to the same client
// as token T-depth*k. Three identities make the whole window arithmetic:
//
//   - Order. Issue times are strictly increasing in the global token
//     index: the first period's are the pre-run window clears (checked
//     distinct and sorted at Begin), every later token's is the clear of
//     the token one period earlier, and every in-run clear exceeds every
//     pre-run one. So there are no ties, and the order depends on neither
//     cache outcomes nor data-arrival times.
//   - Gate dominance. A client's consecutive in-run clears differ by at
//     least one block's cost (q >= 1), so max(r+1, gate) is always the
//     gate — the same two-term collapse as SpanCursor's.
//   - Append. Every issue time is a past clear, at or below the horizon
//     and at or above the earliest entry ready time, above which no
//     remembered gap can hold a block, so every data and metadata charge
//     appends and the telescoped clear formula C(j) answers all of them.
//
// The cursor therefore keeps one charge formula C(j) for the channel and a
// short record of where metadata charges were interleaved; the clear of
// data token T is C(T + 1 + M(T)), with M(T) the metadata charges issued
// before it. Issue-window writes are deferred to Commit, as in SpanCursor.

// MaxJointClients bounds a joint run's client count (the fixed-size
// per-client arrays keep the cursor allocation-free).
const MaxJointClients = 4

// JointVerdict is BeginJointRun's admission outcome.
type JointVerdict uint8

const (
	// JointOK admits the run.
	JointOK JointVerdict = iota
	// JointMultiChannel: channel interleaving breaks the single horizon.
	JointMultiChannel
	// JointNotSaturated: some client's next issue is not its own oldest
	// window clear, or its window clears do not rise by at least one
	// cycle per block, or two clients' window clears tie.
	JointNotSaturated
	// JointAboveHorizon: a window clear lies above the channel horizon.
	JointAboveHorizon
	// JointGap: a remembered idle gap could be backfilled at the earliest
	// ready time, or the rate admits no closed form (q < 1, overflow).
	JointGap
)

// JointCursor accumulates one joint run's charges against a single
// channel. Between BeginJointRun and Commit every bus charge of the
// clients must go through the cursor, in token order.
type JointCursor struct {
	ch         *channel
	b0         uint64 // channel horizon at Begin: C(0)
	q, rr, den uint64
	rem0       uint64
	k, depth   int
	period     uint64 // tokens per FIFO rotation: depth*k
	dshift     uint   // log2(depth) when depth is a power of two above 1, else 0
	wins       [MaxJointClients]*IssueWindow
	idx0       [MaxJointClients]int
	lin        []uint64 // lin[i*depth+n]: client i's n-th oldest window clear
	sigma      []uint8  // sigma[p]: client owning period offset p
	pos        []uint32 // pos[i*depth+n]: period offset of client i's n-th token
	before     []uint16 // before[i*(period+1)+p]: client i's offsets below p
	pre        []uint64 // issue times of the first period's tokens
	end        uint64   // token index of the first client's last block
	t          uint64   // data tokens charged
	meta       uint64   // metadata charges so far
	recs       []metaRec
	head, cnt  int
	dropped    bool // a record was pruned
	// C(hzJ) and its remainder numerator (hzJ*rr+rem0) mod den: the last
	// horizon computed, from which nearby ones follow without division.
	hzJ, hzClear, hzRem uint64
	// Charges already written to the channel (CommitChannel), and the
	// channel's byte count and horizon right after, to detect charges
	// made outside the cursor since.
	jDone     uint64
	doneBytes uint64
	doneClear uint64
}

// metaRec marks a metadata insertion point: data tokens at or after tok
// (and before the next record's) follow cum metadata charges.
type metaRec struct{ tok, cum uint64 }

// BeginJointRun validates the joint FIFO admission predicate for the
// clients' issue windows and next issue times, and primes jc. rem[i] is
// client i's remaining block count (at least 1); the run ends after the
// first client's last block (End). metaPerBlock bounds the metadata
// charges a block can trigger, for the overflow check. On a verdict other
// than JointOK no bus or window state was touched. //tnpu:guard
func (b *Bus) BeginJointRun(jc *JointCursor, ws []*IssueWindow, issue, rem []uint64, metaPerBlock int) JointVerdict {
	if len(b.chans) != 1 {
		return JointMultiChannel
	}
	k := len(ws)
	if k < 2 || k > MaxJointClients || metaPerBlock < 0 {
		return JointNotSaturated
	}
	c := &b.chans[0]
	depth := len(ws[0].slots)
	jc.ensure(k, depth)
	minReady := ^uint64(0)
	for i, w := range ws {
		if len(w.slots) != depth || rem[i] == 0 {
			return JointNotSaturated
		}
		// Gate dominance over the whole pre-run window: the next issue is
		// the oldest clear, and each later clear is at least one cycle
		// after its predecessor, so every prologue issue is its gate. The
		// ring is unrolled oldest-first for the merge below.
		lin := jc.lin[i*depth : (i+1)*depth]
		n := copy(lin, w.slots[w.idx:])
		copy(lin[n:], w.slots[:w.idx])
		if issue[i] != lin[0] {
			return JointNotSaturated
		}
		for n := 1; n < depth; n++ {
			if lin[n] <= lin[n-1] {
				return JointNotSaturated
			}
		}
		if lin[depth-1] > c.busyUntil {
			return JointAboveHorizon
		}
		if lin[0] < minReady {
			minReady = lin[0]
		}
	}
	period := depth * k
	if !c.batchable(minReady, runCharges(rem, depth, period, metaPerBlock)) {
		return JointGap
	}
	// Merge the k sorted windows: the FIFO order of the first period.
	var heads [MaxJointClients]int
	for p := 0; p < period; p++ {
		best, bestV := -1, uint64(0)
		for i := 0; i < k; i++ {
			if heads[i] == depth {
				continue
			}
			if v := jc.lin[i*depth+heads[i]]; best < 0 || v < bestV {
				best, bestV = i, v
			}
		}
		if p > 0 && bestV <= jc.pre[p-1] {
			return JointNotSaturated // tie across clients
		}
		jc.pre[p] = bestV
		jc.sigma[p] = uint8(best)
		jc.pos[best*depth+heads[best]] = uint32(p)
		heads[best]++
	}
	var cnt [MaxJointClients]uint16
	for p := 0; p <= period; p++ {
		for i := 0; i < k; i++ {
			jc.before[i*(period+1)+p] = cnt[i]
		}
		if p < period {
			cnt[jc.sigma[p]]++
		}
	}
	for i := 0; i < k; i++ {
		jc.wins[i] = ws[i]
		jc.idx0[i] = ws[i].idx
	}
	jc.ch = c
	jc.b0 = c.busyUntil
	jc.q = c.q64
	jc.rr = c.r64
	jc.den = c.den
	jc.rem0 = c.rem
	jc.k, jc.depth, jc.period = k, depth, uint64(period)
	jc.dshift = 0
	if depth > 1 && depth&(depth-1) == 0 {
		for 1<<jc.dshift < depth {
			jc.dshift++
		}
	}
	jc.t, jc.meta, jc.jDone = 0, 0, 0
	jc.doneBytes, jc.doneClear = c.bytesMoved, c.busyUntil
	jc.hzJ, jc.hzClear, jc.hzRem = 0, c.busyUntil, c.rem
	jc.head, jc.cnt, jc.dropped = 0, 0, false
	jc.end = jc.endToken(rem)
	return JointOK
}

// runCharges bounds the charges of a run whose clients have rem blocks
// left: fewer than (min(rem)/depth+1) periods of tokens, each with its
// metadata.
func runCharges(rem []uint64, depth, period int, metaPerBlock int) uint64 {
	minRem := rem[0]
	for _, r := range rem[1:] {
		if r < minRem {
			minRem = r
		}
	}
	tokens := (minRem/uint64(depth) + 1) * uint64(period)
	return tokens*uint64(1+metaPerBlock) + 16
}

// endToken is the token of the first client's last block.
func (jc *JointCursor) endToken(rem []uint64) uint64 {
	end := ^uint64(0)
	for i := 0; i < jc.k; i++ {
		if t := jc.Token(i, rem[i]-1); t < end {
			end = t
		}
	}
	return end
}

// ensure sizes the retained scratch for k clients of window depth.
func (jc *JointCursor) ensure(k, depth int) {
	period := k * depth
	if cap(jc.sigma) < period || cap(jc.before) < k*(period+1) {
		// First use (or a wider window): every later run reuses these.
		jc.lin = make([]uint64, period)          //tnpu:allocok
		jc.sigma = make([]uint8, period)         //tnpu:allocok
		jc.pre = make([]uint64, period)          //tnpu:allocok
		jc.pos = make([]uint32, period)          //tnpu:allocok
		jc.recs = make([]metaRec, 2*period+4)    //tnpu:allocok
		jc.before = make([]uint16, k*(period+1)) //tnpu:allocok
	}
	jc.before = jc.before[:k*(period+1)]
	jc.lin, jc.sigma, jc.pre, jc.pos = jc.lin[:period], jc.sigma[:period], jc.pre[:period], jc.pos[:period]
	jc.recs = jc.recs[:2*period+4]
}

// End returns the token index of the run's final block: the last block of
// whichever client finishes first.
func (jc *JointCursor) End() uint64 { return jc.end }

// Tokens returns the number of data tokens charged so far.
func (jc *JointCursor) Tokens() uint64 { return jc.t }

// Owner returns the client that serves token T.
func (jc *JointCursor) Owner(T uint64) int { return int(jc.sigma[T%jc.period]) }

// Token returns the token of client i's g-th block of the run.
func (jc *JointCursor) Token(i int, g uint64) uint64 {
	if jc.dshift > 0 {
		return (g>>jc.dshift)*jc.period + uint64(jc.pos[i<<jc.dshift+int(g&(1<<jc.dshift-1))])
	}
	d := uint64(jc.depth)
	return (g/d)*jc.period + uint64(jc.pos[i*jc.depth+int(g%d)])
}

// Served returns how many of client i's blocks lie below token T: whole
// periods, plus its period offsets below T's.
func (jc *JointCursor) Served(i int, T uint64) uint64 {
	n, off := T/jc.period, T%jc.period
	return n*uint64(jc.depth) + uint64(jc.before[uint64(i)*(jc.period+1)+off])
}

// Owners writes to out the distinct clients owning tokens [from, T),
// ordered by their last token there, oldest first, and returns how many.
// p is T's period offset (Offset), which callers at an event token know
// without a division. Only the last period can hold a client's last
// token, so the backward scan is at most one period long and stops once
// every client is seen.
func (jc *JointCursor) Owners(from, T, p uint64, out []int) int {
	if T <= from {
		return 0
	}
	if T-from > jc.period {
		from = T - jc.period
	}
	var seen uint8
	n := 0
	for tok := T; tok > from && n < jc.k; tok-- {
		if p == 0 {
			p = jc.period
		}
		p--
		if o := jc.sigma[p]; seen&(1<<o) == 0 {
			seen |= 1 << o
			out[n] = int(o)
			n++
		}
	}
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return n
}

// Offset returns token T's offset within the FIFO period.
func (jc *JointCursor) Offset(T uint64) uint64 { return T % jc.period }

// TokenOffset returns the period offset of client i's g-th block of the
// run (the offset of Token(i, g), without a division).
func (jc *JointCursor) TokenOffset(i int, g uint64) uint64 {
	if jc.dshift > 0 {
		return uint64(jc.pos[i<<jc.dshift+int(g&(1<<jc.dshift-1))])
	}
	return uint64(jc.pos[i*jc.depth+int(g%uint64(jc.depth))])
}

// clearAt is C(j): the channel horizon after the run's first j charges.
func (jc *JointCursor) clearAt(j uint64) uint64 {
	return jc.b0 + j*jc.q + (j*jc.rr+jc.rem0)/jc.den
}

// recsUpTo counts the retained records at or below token T (binary
// search: record tokens are increasing).
func (jc *JointCursor) recsUpTo(T uint64) int {
	lo, hi := 0, jc.cnt
	for lo < hi {
		mid := (lo + hi) / 2
		if jc.rec(mid).tok <= T {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rec returns the n-th oldest retained record.
func (jc *JointCursor) rec(n int) *metaRec {
	p := jc.head + n
	if p >= len(jc.recs) {
		p -= len(jc.recs)
	}
	return &jc.recs[p]
}

// metaBefore is M(T): the metadata charges issued before data token T.
func (jc *JointCursor) metaBefore(T uint64) uint64 {
	n := jc.recsUpTo(T)
	if n == 0 {
		if jc.dropped {
			panic("dram: JointCursor query below retained records")
		}
		return 0
	}
	return jc.rec(n - 1).cum
}

// Clear returns the clear time of charged data token T.
func (jc *JointCursor) Clear(T uint64) uint64 {
	return jc.clearAt(T + 1 + jc.metaBefore(T))
}

// Issue returns the issue time of token T (at most one period past the
// charged prefix): a pre-run window clear in the first period, the clear
// of the token one period earlier afterwards.
func (jc *JointCursor) Issue(T uint64) uint64 {
	if T < jc.period {
		return jc.pre[T]
	}
	return jc.Clear(T - jc.period)
}

// Skip charges the pure data tokens [Tokens(), T) in O(1).
func (jc *JointCursor) Skip(T uint64) {
	if T < jc.t {
		panic("dram: JointCursor skip backwards")
	}
	jc.t = T
}

// Data charges the next data token and returns its clear time.
func (jc *JointCursor) Data() uint64 {
	jc.t++
	return jc.horizonAt(jc.t + jc.meta)
}

// horizonAt is C(j) for j at or past the last computed horizon, stepping
// the remainder with conditional subtracts when j is near it (each step
// adds rr < den, so the remainder carries at most once per step).
func (jc *JointCursor) horizonAt(j uint64) uint64 {
	d := j - jc.hzJ
	if d > 4 {
		jc.hzJ, jc.hzClear, jc.hzRem = j, jc.clearAt(j), (j*jc.rr+jc.rem0)%jc.den
		return jc.hzClear
	}
	rem := jc.hzRem + d*jc.rr
	clear := jc.hzClear + d*jc.q
	for rem >= jc.den {
		rem -= jc.den
		clear++
	}
	jc.hzJ, jc.hzClear, jc.hzRem = j, clear, rem
	return clear
}

// Meta appends n metadata charges before the next data token and returns
// the new horizon (the clear of the last of them).
func (jc *JointCursor) Meta(n int) uint64 {
	if n <= 0 {
		return jc.Horizon()
	}
	jc.meta += uint64(n)
	if jc.cnt > 0 {
		last := jc.head + jc.cnt - 1
		if last >= len(jc.recs) {
			last -= len(jc.recs)
		}
		if jc.recs[last].tok == jc.t {
			jc.recs[last].cum = jc.meta
			return jc.Horizon()
		}
	}
	// Queries reach back at most two periods (a client's last block's
	// issue time); the newest record at or below that floor stays.
	if floor := 2 * jc.period; jc.t > floor {
		lim := jc.t - floor
		for jc.cnt >= 2 {
			nx := jc.head + 1
			if nx == len(jc.recs) {
				nx = 0
			}
			if jc.recs[nx].tok > lim {
				break
			}
			jc.head = nx
			jc.cnt--
			jc.dropped = true
		}
	}
	if jc.cnt == len(jc.recs) {
		panic("dram: JointCursor record ring overflow")
	}
	p := jc.head + jc.cnt
	if p >= len(jc.recs) {
		p -= len(jc.recs)
	}
	jc.recs[p] = metaRec{tok: jc.t, cum: jc.meta}
	jc.cnt++
	return jc.Horizon()
}

// After returns the horizon n more charges would reach, without charging.
func (jc *JointCursor) After(n int) uint64 { return jc.clearAt(jc.t + jc.meta + uint64(n)) }

// Horizon returns the clear time of the cursor's last charge.
func (jc *JointCursor) Horizon() uint64 { return jc.horizonAt(jc.t + jc.meta) }

// ring is the window slot client i's n-th block since Begin writes.
func (jc *JointCursor) ring(i int, n uint64) int {
	v := uint64(jc.idx0[i]) + n
	if jc.dshift > 0 {
		return int(v & (1<<jc.dshift - 1))
	}
	return int(v % uint64(jc.depth))
}

// SetEnd re-bounds the run after a client moved on to its next
// instruction: rem[i] is client i's run-relative block index one past its
// current instruction. It reports false when the longer run could
// overflow the charge arithmetic; the run must then stop.
func (jc *JointCursor) SetEnd(rem []uint64, metaPerBlock int) bool {
	end := jc.endToken(rem)
	n := jc.t + jc.meta + (end+1-jc.t)*uint64(1+metaPerBlock) + 16
	if (n+1)*BlockBytes > (1<<62)/jc.ch.num {
		return false
	}
	jc.end = end
	return true
}

// CommitChannel writes the charges so far to the channel, leaving the
// windows deferred, so code outside the cursor may run against an
// up-to-date bus. ChannelMoved then reports whether that code charged the
// channel itself, after which the cursor must not charge again.
func (jc *JointCursor) CommitChannel() {
	c := jc.ch
	if j := jc.t + jc.meta; j > jc.jDone {
		clear := jc.clearAt(j)
		c.rem = (j*jc.rr + jc.rem0) % jc.den
		c.bytesMoved += (j - jc.jDone) * BlockBytes
		c.busyCycles += clear - jc.clearAt(jc.jDone)
		c.busyUntil = clear
		jc.jDone = j
	}
	jc.doneBytes, jc.doneClear = c.bytesMoved, c.busyUntil
}

// ChannelMoved reports whether the channel was charged outside the cursor
// since CommitChannel.
func (jc *JointCursor) ChannelMoved() bool {
	return jc.ch.bytesMoved != jc.doneBytes || jc.ch.busyUntil != jc.doneClear
}

// Commit materializes the deferred window state — each client's ring holds
// the clears of its final depth blocks at the positions the reference loop
// would have written them — and writes the charges not yet committed to
// the channel.
func (jc *JointCursor) Commit() {
	d := uint64(jc.depth)
	for i := 0; i < jc.k; i++ {
		w := jc.wins[i]
		g := jc.Served(i, jc.t)
		lo := uint64(0)
		if g > d {
			lo = g - d
		}
		if lo < g {
			// The client's tokens rise with n, so one search positions a
			// record cursor that then only moves forward.
			r := jc.recsUpTo(jc.Token(i, lo))
			if r == 0 && jc.dropped {
				panic("dram: JointCursor commit below retained records")
			}
			// Consecutive blocks' charge indices are close, so each clear
			// steps from the previous one (see horizonAt).
			var j0, c0, r0 uint64
			for n := lo; n < g; n++ {
				T := jc.Token(i, n)
				for r < jc.cnt && jc.rec(r).tok <= T {
					r++
				}
				var m uint64
				if r > 0 {
					m = jc.rec(r - 1).cum
				}
				j := T + 1 + m
				if n == lo || j-j0 > 8 {
					j0, c0, r0 = j, jc.clearAt(j), (j*jc.rr+jc.rem0)%jc.den
				} else {
					r0 += (j - j0) * jc.rr
					c0 += (j - j0) * jc.q
					for r0 >= jc.den {
						r0 -= jc.den
						c0++
					}
					j0 = j
				}
				w.slots[jc.ring(i, n)] = c0
			}
		}
		w.idx = jc.ring(i, g)
	}
	jc.CommitChannel()
}
