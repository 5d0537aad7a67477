package memprot

import (
	"fmt"

	"tnpu/internal/cache"
	"tnpu/internal/dram"
	"tnpu/internal/isa"
	"tnpu/internal/stats"
)

// This file serves admitted contended multi-NPU windows jointly
// (DESIGN.md section 6f, "Joint FIFO periods"). Once k co-tenants saturate
// the bus, the block-granular arbiter's serve order is one global FIFO
// that dram.JointCursor computes in closed form, so the engine can walk
// the k clients' blocks in that order and do real work only at line
// events: a client's first block of an instruction, its metadata-line
// boundaries, and its segment starts. Blocks between events are covered
// hits on the client's open lines and pure data charges. When a client's
// instruction ends, its machine starts the next one (JointSource) and the
// run continues while the new instruction is ready exactly at the
// client's FIFO slot. Two points keep the shared metadata caches exact
// even though co-tenants' accesses interleave:
//
//   - LRU replay. A covered hit re-promotes its line, and between two
//     events only covered hits happen, so before each event the clients
//     served since the previous one have their open lines touched, in
//     the order of their last served token (cache.Touch). The set state
//     then equals the per-block reference's.
//   - Open-line guard. Only event accesses allocate. An event whose
//     allocation would evict another client's open line (whose covered
//     blocks would then miss) ends the run before the event.
//
// Metadata charges are presented at the boundary block's issue time — a
// past clear at or below the horizon — so they append and keep the FIFO
// order; the engines' streak guards (ctrSimple, overflowPending) decide
// every baseline event the closed form cannot serve, ending the run before
// the event with no state touched.

// JointStop says why a joint run ended or was refused.
type JointStop uint8

const (
	// JointOK: admitted, or an event served — no stop.
	JointOK JointStop = iota
	// JointInstrEnd: a client's DMA instruction retired and its next one
	// could not join the run (none left, not ready at its FIFO slot, or
	// its start touched the bus) — the normal end.
	JointInstrEnd
	// JointMultiChannel: the bus has more than one channel.
	JointMultiChannel
	// JointNotSaturated: some client is not gate-dominated (its next issue
	// is not its window's oldest clear), or window clears tie.
	JointNotSaturated
	// JointAboveHorizon: the next FIFO token would issue at or after the
	// ready time of a machine outside the run (or a window clear lies above
	// the bus horizon).
	JointAboveHorizon
	// JointGap: a remembered idle gap could be backfilled (or the bus
	// rate admits no closed form).
	JointGap
	// JointGuard: an engine guard refused a line event (a counter access
	// outside the streak model, or an allocation evicting a co-tenant's
	// open line).
	JointGuard
	// JointOverflow: a baseline write chunk would wrap a minor counter.
	JointOverflow
	// NumJointStops counts the stop reasons.
	NumJointStops
)

var jointStopNames = [NumJointStops]string{
	"ok", "instr-end", "multi-channel", "not-saturated", "above-horizon", "gap", "engine-guard", "overflow",
}

// String names the reason as tnpu-bench -v prints it.
func (s JointStop) String() string {
	if s < NumJointStops {
		return jointStopNames[s]
	}
	return fmt.Sprintf("joint-stop(%d)", int(s))
}

// stopOf maps a bus admission verdict to its stop reason.
func stopOf(v dram.JointVerdict) JointStop {
	switch v {
	case dram.JointMultiChannel:
		return JointMultiChannel
	case dram.JointAboveHorizon:
		return JointAboveHorizon
	case dram.JointGap:
		return JointGap
	}
	return JointNotSaturated
}

// JointClient is one co-tenant's active DMA instruction as a joint run
// sees it. The caller fills the inputs from its machine; the run updates
// the cursor fields in place and reports what it served.
type JointClient struct {
	Segs    []isa.Segment // the instruction's segments
	Seg     int           // current segment index
	Addr    uint64        // next block address (unrelocated)
	End     uint64        // current segment's end (unrelocated)
	Offset  uint64        // relocation added to every address
	Version uint64
	Write   bool
	Window  *dram.IssueWindow
	// Issue is the next block's issue-ready time; MaxDataAt the latest
	// data-available time of the instruction so far.
	Issue, MaxDataAt uint64
	// Rem is the instruction's block count left from the cursor.
	Rem uint64
	// Src, when set, lets the run continue past the instruction's end
	// (JointSource).
	Src JointSource
	// Blocks is the number of blocks the run served for this client; Done
	// reports that they completed the instruction.
	Blocks uint64
	Done   bool
}

// SegmentBlocks is how many blocks the per-block reference serves from
// block address a to segment end: at least one, then one per 64B step
// below end.
func SegmentBlocks(a, end uint64) uint64 {
	if end <= a+dram.BlockBytes {
		return 1
	}
	return (end - a + dram.BlockBytes - 1) / dram.BlockBytes
}

// JointSource is the machine behind a JointClient. When the client's
// instruction completes inside a joint run, JointNext folds it into the
// machine (cl.Done is set) and starts the machine's next DMA instruction,
// exactly as the arbiter's next scan would, refilling cl for it with no
// blocks served. It reports false when the machine has none left; cl then
// carries nothing to apply. The run continues with the new instruction
// only if nothing touched the bus meanwhile and the instruction is ready
// exactly at the client's next FIFO slot.
type JointSource interface {
	JointNext(cl *JointClient) bool
}

// JointEngine is implemented by engines that can serve an admitted
// contended window jointly: JointRun serves the clients' blocks in the
// block-granular arbiter's order — continuing through instruction ends
// while the clients' sources keep them in the FIFO — until an instruction
// end it cannot continue through, an event the closed form cannot serve,
// or the first block that would issue at or after horizon (the earliest
// ready time of the machines outside the run, which the arbiter would
// serve from then on). It returns why it stopped and which client served
// the final block (-1 when it served none — the run was refused and no
// state was touched). Each client's cursor then describes its current
// instruction; instructions completed inside the run were already folded
// into their machines.
type JointEngine interface {
	JointRun(cl []JointClient, horizon uint64) (stop JointStop, last int)
}

// noLine marks a client with no open metadata line yet.
const noLine = ^uint64(0)

// jointClient is the run-local state of one client.
type jointClient struct {
	cl     *JointClient
	g0     uint64 // in-run index of the instruction's first block
	rem    uint64 // in-run index one past the instruction's last block
	ev     uint64 // in-run index of the next event block (rem: none)
	evT    uint64 // its token
	evP    uint64 // and the token's period offset
	chunk  uint64 // blocks from the event block to the next event
	chunkG uint64 // in-run index of the current chunk's first block
	chunkA uint64 // address of that block (unrelocated)
	seg    int    // segment and segment end of the current chunk
	segEnd uint64
	evA    uint64 // address, segment, and segment end of block ev
	evSeg  int
	evEnd  uint64
	mac    uint64 // open MAC line (relocated), noLine before the first event
	ctr    uint64 // open counter line (baseline), noLine before the first event
	// Real cache accesses made for the client's events; its other served
	// blocks were covered hits, counted in bulk.
	macAcc, ctrAcc uint64
	bumped         uint64 // in-run blocks whose minor-counter bumps are applied
	served         uint64 // the client's blocks in the run, at its end
}

// jointRun is an engine's reusable joint-run scratch.
type jointRun struct {
	jc    dram.JointCursor
	cs    [dram.MaxJointClients]jointClient
	wins  [dram.MaxJointClients]*dram.IssueWindow
	issue [dram.MaxJointClients]uint64
	rem   [dram.MaxJointClients]uint64
	k     int
	done  uint64 // tokens whose cache effects are applied
	avoid [dram.MaxJointClients]uint64
}

// jointScheme is an engine's side of a joint run.
type jointScheme interface {
	// jointMeta bounds the metadata charges one block can trigger.
	jointMeta() int
	// jointChunk returns the blocks from relocated block address a to the
	// next metadata-line boundary (noLine when the scheme has none).
	jointChunk(a uint64) uint64
	// jointTouch replays the covered-hit LRU effect on c's open lines,
	// reporting false if a line is no longer resident.
	jointTouch(c *jointClient) bool
	// jointEvent serves client i's event block, token T, after checking
	// the scheme's guards; a stop other than JointOK refuses the event
	// with no state touched.
	jointEvent(jr *jointRun, i int, T uint64) (dataAt uint64, stop JointStop)
	// jointPure is the data-available time of a covered block.
	jointPure(busFree, issue uint64, write bool) uint64
	// jointBump applies deferred per-block state (baseline minor-counter
	// bumps) for the client's served blocks below in-run index g.
	jointBump(c *jointClient, g uint64)
	// jointFinish applies the run's bulk covered-lookup accounting.
	jointFinish(jr *jointRun)
	// jointTraffic is the engine's traffic accumulator.
	jointTraffic() *stats.Traffic
}

// run is the engine-independent joint loop: admission (BeginJointRun),
// event walk in token order, continuation past instruction ends, and
// write-back of the client cursors. //tnpu:noalloc
func (jr *jointRun) run(bus *dram.Bus, s jointScheme, cl []JointClient, horizon uint64) (JointStop, int) {
	k := len(cl)
	if k < 2 || k > dram.MaxJointClients {
		return JointNotSaturated, -1
	}
	for i := range cl {
		jr.wins[i] = cl[i].Window
		jr.issue[i] = cl[i].Issue
		jr.rem[i] = cl[i].Rem
	}
	jc := &jr.jc
	if v := bus.BeginJointRun(jc, jr.wins[:k], jr.issue[:k], jr.rem[:k], s.jointMeta()); v != dram.JointOK {
		return stopOf(v), -1
	}
	jr.k = k
	jr.done = 0
	for i := range cl {
		p := &jr.cs[i]
		*p = jointClient{mac: noLine, ctr: noLine}
		p.start(s, jc, i, &cl[i], 0)
	}
	end := jc.End()
	stop := JointInstrEnd
	for {
		m, tev := -1, ^uint64(0)
		for i := 0; i < k; i++ {
			if c := &jr.cs[i]; c.ev < c.rem && c.evT < tev {
				m, tev = i, c.evT
			}
		}
		hi := end
		if m >= 0 && tev < hi {
			hi = tev
		}
		if horizon != ^uint64(0) && jc.Issue(hi) >= horizon {
			// Issue times rise with the token index: serve the tokens
			// strictly below the horizon and stop at the first one that
			// is not (tokens up to the next event have fixed clears).
			lo := jc.Tokens()
			for lo < hi {
				mid := lo + (hi-lo)/2
				if jc.Issue(mid) >= horizon {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			jc.Skip(hi)
			stop = JointAboveHorizon
			break
		}
		if m >= 0 && tev <= end {
			jc.Skip(tev)
			jr.touch(s, tev, jr.cs[m].evP)
			dataAt, st := s.jointEvent(jr, m, tev)
			if st != JointOK {
				stop = st
				break
			}
			jr.done = tev + 1
			c := &jr.cs[m]
			if dataAt > c.cl.MaxDataAt {
				c.cl.MaxDataAt = dataAt
			}
			c.open()
			c.plan(s, jc, m)
			if tev < end {
				continue
			}
		}
		// Token end completes its client's instruction.
		jc.Skip(end + 1)
		if !jr.next(bus, s, jc.Owner(end), end) {
			break
		}
		end = jc.End()
	}
	t := jc.Tokens()
	jr.touch(s, t, jc.Offset(t))
	for i := 0; i < k; i++ {
		c := &jr.cs[i]
		c.served = jc.Served(i, t)
		jr.close(s, i, c.served)
	}
	s.jointFinish(jr)
	last := -1
	if t > 0 {
		last = jc.Owner(t - 1)
	}
	jc.Commit()
	return stop, last
}

// start makes cl client i's current instruction, its first block being the
// client's in-run block g.
func (c *jointClient) start(s jointScheme, jc *dram.JointCursor, i int, cl *JointClient, g uint64) {
	c.cl, c.g0, c.rem = cl, g, g+cl.Rem
	c.ev, c.chunkG, c.bumped = g, g, g
	c.chunkA, c.seg, c.segEnd = cl.Addr, cl.Seg, cl.End
	c.evA, c.evSeg, c.evEnd = cl.Addr, cl.Seg, cl.End
	c.plan(s, jc, i)
}

// close folds the client's served in-run blocks (g in total) into its
// cursor: blocks and completion of the current instruction, its latest
// data-available time and next issue, its position, and its data traffic.
// A client that served nothing of its current instruction keeps the
// cursor it came with.
func (jr *jointRun) close(s jointScheme, i int, g uint64) {
	jc, c := &jr.jc, &jr.cs[i]
	s.jointBump(c, g)
	n := g - c.g0
	c.cl.Blocks = n
	c.cl.Done = n > 0 && g == c.rem
	if n == 0 {
		return
	}
	tl := jc.Token(i, g-1)
	if d := s.jointPure(jc.Clear(tl), jc.Issue(tl), c.cl.Write); d > c.cl.MaxDataAt {
		c.cl.MaxDataAt = d
	}
	if tr := s.jointTraffic(); c.cl.Write {
		tr.AddWrite(stats.Data, n*dram.BlockBytes)
	} else {
		tr.AddRead(stats.Data, n*dram.BlockBytes)
	}
	c.cl.Issue = jc.Issue(jc.Token(i, g))
	if g == c.ev {
		c.cl.Addr, c.cl.Seg, c.cl.End = c.evA, c.evSeg, c.evEnd
	} else {
		c.cl.Addr, c.cl.Seg, c.cl.End = c.chunkA+(g-c.chunkG)*dram.BlockBytes, c.seg, c.segEnd
	}
}

// next handles the end of client i's instruction at token T: the
// instruction is folded into the machine, which starts its next one. The
// run continues (true) when that left the bus untouched and the new
// instruction issues exactly at the client's next FIFO slot; its blocks
// then join the run from the client's next token on.
func (jr *jointRun) next(bus *dram.Bus, s jointScheme, i int, T uint64) bool {
	jc, c := &jr.jc, &jr.cs[i]
	src := c.cl.Src
	if src == nil {
		return false
	}
	// Every covered hit so far reaches the caches before the machine (and
	// possibly its engine) runs: the client's open lines end here.
	jr.touch(s, T+1, jc.Offset(T+1))
	g := c.rem
	jr.close(s, i, g)
	jc.CommitChannel()
	more := src.JointNext(c.cl)
	if jc.ChannelMoved() || !more {
		c.g0, c.rem, c.ev = g, g, g
		return false
	}
	c.mac, c.ctr = noLine, noLine
	c.start(s, jc, i, c.cl, g)
	if c.cl.Issue != jc.Issue(jc.Token(i, g)) {
		c.rem, c.ev = g, g // not gate-dominated: the arbiter takes over
		return false
	}
	for j := 0; j < jr.k; j++ {
		jr.rem[j] = jr.cs[j].rem
	}
	if !jc.SetEnd(jr.rem[:jr.k], s.jointMeta()) {
		c.rem, c.ev = g, g
		return false
	}
	return true
}

// plan sizes the chunk starting at the client's event block and caches
// the event's token.
func (c *jointClient) plan(s jointScheme, jc *dram.JointCursor, i int) {
	if c.ev >= c.rem {
		return
	}
	c.chunk = SegmentBlocks(c.evA, c.evEnd)
	if l := s.jointChunk(c.evA + c.cl.Offset); l < c.chunk {
		c.chunk = l
	}
	c.evT, c.evP = jc.Token(i, c.ev), jc.TokenOffset(i, c.ev)
}

// open makes the planned chunk current and positions the next event at
// the block after it: the next line boundary, or the next segment's start.
func (c *jointClient) open() {
	c.chunkG, c.chunkA, c.seg, c.segEnd = c.ev, c.evA, c.evSeg, c.evEnd
	c.ev += c.chunk
	if c.ev >= c.rem {
		return
	}
	if c.chunk < SegmentBlocks(c.evA, c.evEnd) {
		c.evA += c.chunk * dram.BlockBytes
		return
	}
	c.evSeg++
	seg := c.cl.Segs[c.evSeg]
	c.evA, c.evEnd = seg.Addr&^(dram.BlockBytes-1), seg.Addr+seg.Bytes
}

// touch replays the LRU effect of the covered hits served in tokens
// [done, T): each client served there has its open lines promoted, in the
// order of its last served token.
func (jr *jointRun) touch(s jointScheme, T, p uint64) {
	if T <= jr.done || s.jointMeta() == 0 {
		return // nothing new, or no metadata lines to replay
	}
	var order [dram.MaxJointClients]int
	n := jr.jc.Owners(jr.done, T, p, order[:])
	for _, i := range order[:n] {
		if !s.jointTouch(&jr.cs[i]) {
			panic("memprot: joint run lost a co-tenant's open metadata line") //tnpu:allocok (invariant violation; the open-line guard prevents it)
		}
	}
	jr.done = T
}

// touchOpen promotes an open line for a covered hit.
func (jr *jointRun) touchOpen(c *cache.Cache, line uint64) {
	if !c.Touch(line) {
		panic("memprot: joint run lost an open metadata line") //tnpu:allocok (invariant violation; the open-line guard prevents it)
	}
}

// otherOpen lists the open lines (of the given kind) of the clients other
// than i, in the run's scratch buffer.
func (jr *jointRun) otherOpen(i int, ctr bool) []uint64 {
	n := 0
	for j := 0; j < jr.k; j++ {
		if j == i {
			continue
		}
		jr.avoid[n] = jr.cs[j].mac
		if ctr {
			jr.avoid[n] = jr.cs[j].ctr
		}
		n++
	}
	return jr.avoid[:n]
}

// evictsOpen reports whether an access to line in c would evict an open
// line (of the given kind) of a client other than i.
func (jr *jointRun) evictsOpen(c *cache.Cache, line uint64, i int, ctr bool) bool {
	v, ok := c.Victim(line)
	if !ok {
		return false
	}
	for _, o := range jr.otherOpen(i, ctr) {
		if o == v {
			return true
		}
	}
	return false
}

// --- unsecure / encrypt-only: pure data, events only at segment starts ---

// JointRun serves an admitted contended window jointly.
// //tnpu:noalloc //tnpu:fastpath
func (u *unsecure) JointRun(cl []JointClient, horizon uint64) (JointStop, int) {
	return u.jr.run(u.cfg.Bus, u, cl, horizon)
}

func (u *unsecure) jointMeta() int                     { return 0 }
func (u *unsecure) jointChunk(a uint64) uint64         { return noLine }
func (u *unsecure) jointTouch(c *jointClient) bool     { return true }
func (u *unsecure) jointFinish(jr *jointRun)           {}
func (u *unsecure) jointBump(c *jointClient, g uint64) {}
func (u *unsecure) jointTraffic() *stats.Traffic       { return &u.traffic }

func (u *unsecure) jointPure(busFree, issue uint64, write bool) uint64 {
	if write {
		return busFree
	}
	return busFree + u.cfg.Bus.Latency()
}

func (u *unsecure) jointEvent(jr *jointRun, i int, T uint64) (uint64, JointStop) {
	return u.jointPure(jr.jc.Data(), 0, jr.cs[i].cl.Write), JointOK
}

// JointRun serves an admitted contended window jointly.
// //tnpu:noalloc //tnpu:fastpath
func (e *encryptOnly) JointRun(cl []JointClient, horizon uint64) (JointStop, int) {
	return e.jr.run(e.cfg.Bus, e, cl, horizon)
}

func (e *encryptOnly) jointMeta() int                     { return 0 }
func (e *encryptOnly) jointChunk(a uint64) uint64         { return noLine }
func (e *encryptOnly) jointTouch(c *jointClient) bool     { return true }
func (e *encryptOnly) jointFinish(jr *jointRun)           {}
func (e *encryptOnly) jointBump(c *jointClient, g uint64) {}
func (e *encryptOnly) jointTraffic() *stats.Traffic       { return &e.traffic }

func (e *encryptOnly) jointPure(busFree, issue uint64, write bool) uint64 {
	if write {
		return busFree
	}
	return busFree + e.cfg.Bus.Latency() + e.cfg.XTSCycles
}

func (e *encryptOnly) jointEvent(jr *jointRun, i int, T uint64) (uint64, JointStop) {
	return e.jointPure(jr.jc.Data(), 0, jr.cs[i].cl.Write), JointOK
}

// --- tree-less (TNPU): MAC-line events ---

// JointRun serves an admitted contended window jointly.
// //tnpu:noalloc //tnpu:fastpath
func (t *treeless) JointRun(cl []JointClient, horizon uint64) (JointStop, int) {
	return t.jr.run(t.cfg.Bus, t, cl, horizon)
}

func (t *treeless) jointMeta() int                 { return 2 }
func (t *treeless) jointChunk(a uint64) uint64     { return uint64(macRunLen(a, t.cfg.MACSlotBytes)) }
func (t *treeless) jointTouch(c *jointClient) bool { return t.mac.Touch(c.mac) }
func (t *treeless) jointTraffic() *stats.Traffic   { return &t.traffic }

// jointPure: a covered read's MAC hit resolves at its issue time, which
// the data-arrival term dominates (busFree > issue).
func (t *treeless) jointPure(busFree, issue uint64, write bool) uint64 {
	if write {
		return busFree
	}
	return busFree + t.cfg.Bus.Latency() + t.cfg.XTSCycles + t.cfg.MACCycles
}

func (t *treeless) jointBump(c *jointClient, g uint64) {}

func (t *treeless) jointFinish(jr *jointRun) {
	var covered uint64
	for i := 0; i < jr.k; i++ {
		covered += jr.cs[i].served - jr.cs[i].macAcc
	}
	t.mac.AddRunHits(covered)
}

// jointEvent is ReadBlock/WriteBlock for a line-event block, charging
// through the joint cursor. //tnpu:noalloc
func (t *treeless) jointEvent(jr *jointRun, i int, T uint64) (uint64, JointStop) {
	c := &jr.cs[i]
	jc := &jr.jc
	line := macLineAddr(c.evA+c.cl.Offset, t.cfg.MACSlotBytes)
	if line == c.mac {
		// A segment start inside the open line: a covered hit.
		jr.touchOpen(t.mac, line)
		return t.jointPure(jc.Data(), 0, c.cl.Write), JointOK
	}
	res, refused := t.mac.AccessAvoid(line, c.cl.Write, jr.otherOpen(i, false))
	if refused {
		return 0, JointGuard
	}
	c.mac = line
	c.macAcc++
	if res.Writeback {
		t.traffic.AddWrite(stats.MAC, dram.BlockBytes)
	}
	if c.cl.Write {
		// Write-validated MAC update first; only a dirty victim charges.
		if res.Writeback {
			jc.Meta(1)
		}
		return jc.Data(), JointOK
	}
	busFree := jc.Data()
	if res.Writeback {
		jc.Meta(1)
	}
	d := t.jointPure(busFree, 0, false)
	if !res.Hit {
		// A hit's MAC is available at the issue time, dominated by arrival.
		t.traffic.AddRead(stats.MAC, dram.BlockBytes)
		if macAt := jc.Meta(1) + t.cfg.Bus.Latency() + t.cfg.MACCycles; macAt > d {
			d = macAt
		}
	}
	return d, JointOK
}

// --- baseline (tree-based): counter- and MAC-line events ---

// JointRun serves an admitted contended window jointly.
// //tnpu:noalloc //tnpu:fastpath
func (b *baseline) JointRun(cl []JointClient, horizon uint64) (JointStop, int) {
	if !b.batchSafe() {
		return JointGuard, -1
	}
	return b.jr.run(b.cfg.Bus, b, cl, horizon)
}

func (b *baseline) jointMeta() int               { return 4 }
func (b *baseline) jointTraffic() *stats.Traffic { return &b.traffic }

func (b *baseline) jointChunk(a uint64) uint64 {
	n := uint64(macRunLen(a, b.cfg.MACSlotBytes))
	if c := b.cfg.TreeArity - (a/dram.BlockBytes)%b.cfg.TreeArity; c < n {
		n = c
	}
	return n
}

func (b *baseline) jointTouch(c *jointClient) bool {
	return b.counter.Touch(c.ctr) && b.mac.Touch(c.mac)
}

// jointPure: covered counter and MAC hits resolve at the issue time.
func (b *baseline) jointPure(busFree, issue uint64, write bool) uint64 {
	if write {
		return busFree
	}
	return max64(busFree+b.cfg.Bus.Latency(), issue+b.cfg.OTPCycles) + b.cfg.XORCycles + b.cfg.MACCycles
}

// jointBump applies the deferred minor-counter bumps of client c's served
// blocks up to in-run index g (all in its current chunk).
func (b *baseline) jointBump(c *jointClient, g uint64) {
	if !c.cl.Write || g <= c.bumped {
		return
	}
	b.minorStretchBump(c.chunkA+c.cl.Offset+(c.bumped-c.chunkG)*dram.BlockBytes, 0, int(g-c.bumped))
	c.bumped = g
}

func (b *baseline) jointFinish(jr *jointRun) {
	var ctrCovered, macCovered uint64
	for i := 0; i < jr.k; i++ {
		c := &jr.cs[i]
		ctrCovered += c.served - c.ctrAcc
		macCovered += c.served - c.macAcc
	}
	b.counter.AddRunHits(ctrCovered)
	b.mac.AddRunHits(macCovered)
}

// jointEvent is ReadBlock/WriteBlock for a line-event block, charging
// through the joint cursor; every access outside the streak model refuses
// the event. A cache whose line the block shares with the client's
// previous block sees a covered hit. //tnpu:noalloc
func (b *baseline) jointEvent(jr *jointRun, i int, T uint64) (uint64, JointStop) {
	c := &jr.cs[i]
	jc := &jr.jc
	b.jointBump(c, c.ev) // the previous chunk is fully served
	a := c.evA + c.cl.Offset
	ctrAddr := b.counterLineAddr(a)
	line := macLineAddr(a, b.cfg.MACSlotBytes)
	newCtr, newMac := ctrAddr != c.ctr, line != c.mac
	if newCtr {
		// A counter miss's walk may wait for a busy MSHR: its fetch still
		// appends as long as the walk starts at or below the horizon it
		// is charged at (after the boundary's data charge on reads).
		hz := jc.Horizon()
		if !c.cl.Write {
			hz = jc.After(1)
		}
		if !b.ctrSimple(a, hz) || jr.evictsOpen(b.counter, ctrAddr, i, true) {
			return 0, JointGuard
		}
	}
	if c.cl.Write && b.overflowPending(a, int(c.chunk)) {
		return 0, JointOverflow
	}
	// The caches are independent, so the MAC line's access may precede
	// the counter's; its charges still follow the reference order.
	var macRes cache.Result
	if newMac {
		res, refused := b.mac.AccessAvoid(line, c.cl.Write, jr.otherOpen(i, false))
		if refused {
			return 0, JointGuard
		}
		macRes = res
	}
	// The issue time only feeds hit-time availability terms, which the
	// data terms dominate (busFree > r) except for a read's OTP term when
	// the OTP latency exceeds the DRAM latency.
	var r uint64
	if !c.cl.Write && b.cfg.OTPCycles > b.cfg.Bus.Latency() {
		r = jc.Issue(T)
	}
	if !c.cl.Write {
		busFree := jc.Data()
		counterAt, macAt := r, r
		if newCtr {
			counterAt = b.ctrStreakAccess(jc, r, a, 1, false)
		}
		if newMac {
			macAt = b.macStreakCharge(jc, r, 1, macRes, false)
		}
		b.jointOpen(jr, c, ctrAddr, line, newCtr, newMac)
		d := max64(busFree+b.cfg.Bus.Latency(), counterAt+b.cfg.OTPCycles)
		return max64(d+b.cfg.XORCycles, macAt) + b.cfg.MACCycles, JointOK
	}
	counterAt := r
	if newCtr {
		counterAt = b.ctrStreakAccess(jc, r, a, 1, true)
	}
	if newMac {
		b.macStreakCharge(jc, r, 1, macRes, true)
	}
	b.jointOpen(jr, c, ctrAddr, line, newCtr, newMac)
	return max64(jc.Data(), counterAt), JointOK
}

// jointOpen records the event block's lines as the client's open lines;
// a line it kept sees the block's covered hit as an LRU touch.
func (b *baseline) jointOpen(jr *jointRun, c *jointClient, ctrAddr, line uint64, newCtr, newMac bool) {
	if newCtr {
		c.ctr = ctrAddr
		c.ctrAcc++
	} else {
		jr.touchOpen(b.counter, ctrAddr)
	}
	if newMac {
		c.mac = line
		c.macAcc++
	} else {
		jr.touchOpen(b.mac, line)
	}
}
