package memprot

import (
	"tnpu/internal/cache"
	"tnpu/internal/dram"
	"tnpu/internal/integrity"
	"tnpu/internal/isa"
	"tnpu/internal/stats"
)

// RunEngine is the optional batched fast path of a protection engine:
// serve one DMA instruction's blocks in one call — the blocks of every
// segment in segs, in order, the first segment starting at block address
// from (unrelocated, inside segs[0]) and every address relocated by off —
// gated by the caller's DMA issue window, with bus state, cache state,
// statistics, and returned times identical to pushing the same blocks
// through ReadBlock/WriteBlock one at a time:
//
//	for k, seg := range segs {
//	    a := seg.Addr &^ (dram.BlockBytes - 1)
//	    if k == 0 {
//	        a = from
//	    }
//	    for n := SegmentBlocks(a, seg.Addr+seg.Bytes); n > 0; n-- {
//	        busFree, dataAt := e.ReadBlock(ready, a+off, version)
//	        maxDataAt = max(maxDataAt, dataAt)
//	        if gate := w.Note(busFree); gate > ready+1 { ready = gate } else { ready++ }
//	        a += dram.BlockBytes
//	    }
//	}
//
// The batching exploits the same regularity TNPU's hardware does: a
// streaming DMA touches each metadata line once and then hits it for every
// remaining covered block, so only line-boundary blocks — and segment
// starts, which open lines afresh — need the full model. It is an optional
// interface so engine wrappers (e.g. the attack harness) transparently
// keep the per-block path.
type RunEngine interface {
	ReadRun(ready uint64, segs []isa.Segment, from, off, version uint64, w *dram.IssueWindow) (nextReady, maxDataAt uint64)
	WriteRun(ready uint64, segs []isa.Segment, from, off, version uint64, w *dram.IssueWindow) (nextReady, maxDataAt uint64)
}

// segAt returns segment k's first block address, relocated by off, and
// its block count under the per-block reference; segment 0 starts at
// from. //tnpu:noalloc //tnpu:pure
func segAt(segs []isa.Segment, k int, from, off uint64) (addr uint64, n int) {
	s := &segs[k]
	if k > 0 {
		from = s.Addr &^ (dram.BlockBytes - 1)
	}
	return from + off, int(SegmentBlocks(from, s.Addr+s.Bytes))
}

// runBlocks returns the instruction's total block count. //tnpu:noalloc //tnpu:pure
func runBlocks(segs []isa.Segment, from uint64) int {
	total := 0
	for k := range segs {
		_, n := segAt(segs, k, from, 0)
		total += n
	}
	return total
}

// issueNext applies the DMA issue-window gating one block at a time — the
// exact update the npu.Machine reference loop performs.
func issueNext(w *dram.IssueWindow, busFree, ready uint64) uint64 {
	gate := w.Note(busFree)
	if gate > ready+1 {
		return gate
	}
	return ready + 1
}

// runPerBlock is the reference fallback: the per-block engine path under
// the caller's issue window for n blocks from addr, used whenever a scheme
// cannot batch safely.
func runPerBlock(e Engine, read bool, ready, addr, version uint64, n int, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	r := ready
	for i := 0; i < n; i++ {
		a := addr + uint64(i)*dram.BlockBytes
		var busFree, dataAt uint64
		if read {
			busFree, dataAt = e.ReadBlock(r, a, version)
		} else {
			busFree, dataAt = e.WriteBlock(r, a, version)
		}
		if dataAt > maxDataAt {
			maxDataAt = dataAt
		}
		r = issueNext(w, busFree, r)
	}
	return r, maxDataAt
}

// segsPerBlock is runPerBlock over a whole instruction's segments.
func segsPerBlock(e Engine, read bool, ready uint64, segs []isa.Segment, from, off, version uint64, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	r := ready
	for k := range segs {
		a, n := segAt(segs, k, from, off)
		var d uint64
		r, d = runPerBlock(e, read, r, a, version, n, w)
		if d > maxDataAt {
			maxDataAt = d
		}
	}
	return r, maxDataAt
}

// macRunLen returns how many consecutive blocks starting at addr share
// addr's MAC line: with slotBytes of MAC per block, block i's slot lives in
// line (i*slotBytes)/64, a non-decreasing step function of i. Works for
// any slot size, including ones that do not divide the line.
func macRunLen(addr, slotBytes uint64) int {
	blockIdx := addr / dram.BlockBytes
	off := blockIdx * slotBytes
	lineEnd := (off/dram.BlockBytes + 1) * dram.BlockBytes
	return int((lineEnd - off + slotBytes - 1) / slotBytes)
}

// macAccessRun is macAccess for count consecutive blocks under one MAC
// line: the boundary block runs the full hit/miss path; the remaining
// count-1 per-block accesses would be guaranteed hits on the just-touched
// line (nothing else touches the MAC cache in between), so they are
// charged through cache.AccessRun without re-walking the model. This is
// the per-block reference of the treeless fallback loop. //tnpu:reference
func macAccessRun(c *cache.Cache, cfg *Config, traffic *stats.Traffic, ready, addr, count uint64, write, writeValidate bool) uint64 {
	at := macAccess(c, cfg, traffic, ready, addr, write, writeValidate)
	if count > 1 {
		c.AccessRun(macLineAddr(addr, cfg.MACSlotBytes), count-1, write)
	}
	return at
}

// counterAccessRun is counterAccess for count consecutive blocks under one
// counter line. The embedded real access of cache.AccessRun re-promotes
// the demand line over a next-line prefetch fill, exactly as the first
// per-block hit after a prefetching miss would.
func (b *baseline) counterAccessRun(ready, addr, count uint64, write bool) uint64 {
	at := b.counterAccess(ready, addr, write)
	if count > 1 {
		b.counter.AccessRun(b.counterLineAddr(addr), count-1, write)
	}
	return at
}

// batchSafe reports whether the guaranteed-hit reasoning holds for the
// baseline's counter cache: a next-line prefetch into a single-line cache
// evicts the demand line itself, breaking the "covered blocks hit" chunk
// invariant. Every realistic configuration is safe.
//
//tnpu:pure
func (b *baseline) batchSafe() bool {
	return !b.cfg.CounterPrefetch || b.cfg.CounterCacheBytes > dram.BlockBytes
}

// --- unsecure / encrypt-only: pure bandwidth arithmetic ---

// streamSegs serves an instruction's data blocks as bus streams. On a
// single channel a data charge does not depend on its address, so the
// whole instruction is one StreamRun over its total block count; a
// multi-channel bus routes by address and streams segment by segment.
// It returns the next issue time, the latest channel clear, and the
// block count. //tnpu:noalloc
func streamSegs(bus *dram.Bus, ready uint64, segs []isa.Segment, from, off uint64, w *dram.IssueWindow) (nextReady, maxFree uint64, blocks int) {
	if bus.Channels() == 1 {
		blocks = runBlocks(segs, from)
		nextReady, maxFree, _ = bus.StreamRun(ready, from+off, blocks, w)
		return nextReady, maxFree, blocks
	}
	nextReady = ready
	for k := range segs {
		a, n := segAt(segs, k, from, off)
		nr, mf, _ := bus.StreamRun(nextReady, a, n, w)
		nextReady = nr
		if mf > maxFree {
			maxFree = mf
		}
		blocks += n
	}
	return nextReady, maxFree, blocks
}

// ReadRun serves a read instruction as bus streams. //tnpu:noalloc
// //tnpu:exactform one StreamRun per channel-independent stream is the model itself, not an approximation of a per-block loop
func (u *unsecure) ReadRun(ready uint64, segs []isa.Segment, from, off, version uint64, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	next, maxFree, n := streamSegs(u.cfg.Bus, ready, segs, from, off, w)
	u.traffic.AddRead(stats.Data, uint64(n)*dram.BlockBytes)
	return next, maxFree + u.cfg.Bus.Latency()
}

// WriteRun serves a write instruction as bus streams. //tnpu:noalloc
// //tnpu:exactform one StreamRun per channel-independent stream is the model itself, not an approximation of a per-block loop
func (u *unsecure) WriteRun(ready uint64, segs []isa.Segment, from, off, version uint64, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	next, maxFree, n := streamSegs(u.cfg.Bus, ready, segs, from, off, w)
	u.traffic.AddWrite(stats.Data, uint64(n)*dram.BlockBytes)
	return next, maxFree
}

// ReadRun streams the instruction and tacks the XTS pipe onto arrival. //tnpu:noalloc
// //tnpu:exactform stream plus fixed XTS latency is the model itself, exact for every run
func (e *encryptOnly) ReadRun(ready uint64, segs []isa.Segment, from, off, version uint64, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	next, maxFree, n := streamSegs(e.cfg.Bus, ready, segs, from, off, w)
	e.traffic.AddRead(stats.Data, uint64(n)*dram.BlockBytes)
	return next, maxFree + e.cfg.Bus.Latency() + e.cfg.XTSCycles
}

// WriteRun streams the instruction; encryption overlaps issue. //tnpu:noalloc
// //tnpu:exactform stream with overlapped encryption is the model itself, exact for every run
func (e *encryptOnly) WriteRun(ready uint64, segs []isa.Segment, from, off, version uint64, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	next, maxFree, n := streamSegs(e.cfg.Bus, ready, segs, from, off, w)
	e.traffic.AddWrite(stats.Data, uint64(n)*dram.BlockBytes)
	return next, maxFree
}

// --- tree-less (TNPU): batches whole MAC-line streaks ---

// An instruction of at least streakMinBlocks blocks on a single channel is
// served as one streak (streak.go) across all its segments: every MAC-line
// outcome of a segment is resolved in one cache walk and the reference
// charge sequence replays through one SpanCursor in closed form, a segment
// start being one more line event. The per-line loop below remains as the
// fallback for short instructions, multi-channel buses, and configurations
// where the append invariant is unprovable.

// ReadRun batches MAC-line streaks of the read instruction. //tnpu:noalloc
func (t *treeless) ReadRun(ready uint64, segs []isa.Segment, from, off, version uint64, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	r := ready
	lat := t.cfg.Bus.Latency()
	left := runBlocks(segs, from) // blocks not yet served
	inStreak := false
	pending := 0 // streak data blocks awaiting one span charge
	for k := range segs {
		addr, n := segAt(segs, k, from, off)
		for i := 0; i < n; {
			// Open the streak for the rest of the instruction. A rejected
			// attempt usually failed on a remembered idle gap; gaps are
			// consumed (or overtaken) as the run's own blocks land, so the
			// streak is retried at every line and segment start.
			if !inStreak && left >= streakMinBlocks {
				inStreak = t.cfg.Bus.BeginSpanRun(&t.cur, w, r, 3*left+16)
			}
			a := addr + uint64(i)*dram.BlockBytes
			if inStreak {
				var d uint64
				r, pending, d = t.readStreak(r, a, n-i, pending)
				if d > maxDataAt {
					maxDataAt = d
				}
				left -= n - i
				break
			}
			m := macRunLen(a, t.cfg.MACSlotBytes)
			if m > n-i {
				m = n - i
			}
			// Line-boundary block: full ReadBlock path, charging the MAC line
			// for every block it covers in this segment.
			t.traffic.AddRead(stats.Data, dram.BlockBytes)
			busFree := t.cfg.Bus.TransferAt(r, a, dram.BlockBytes)
			macAt := macAccessRun(t.mac, &t.cfg, &t.traffic, r, a, uint64(m), false, true)
			dataAt := max64(busFree+lat+t.cfg.XTSCycles, macAt) + t.cfg.MACCycles
			if dataAt > maxDataAt {
				maxDataAt = dataAt
			}
			r = issueNext(w, busFree, r)
			// Covered blocks: the MAC hit resolves at the issue time, which the
			// data-arrival term always dominates, leaving pure bus arithmetic.
			if m > 1 {
				t.traffic.AddRead(stats.Data, uint64(m-1)*dram.BlockBytes)
				nr, maxFree, _ := t.cfg.Bus.StreamRun(r, a+dram.BlockBytes, m-1, w)
				r = nr
				if d := maxFree + lat + t.cfg.XTSCycles + t.cfg.MACCycles; d > maxDataAt {
					maxDataAt = d
				}
			}
			i += m
			left -= m
		}
	}
	if inStreak {
		if pending > 0 {
			lastFree, _, nr := t.cur.Data(r, pending)
			r = nr
			if d := lastFree + lat + t.cfg.XTSCycles + t.cfg.MACCycles; d > maxDataAt {
				maxDataAt = d
			}
		}
		t.cur.Commit()
	}
	return r, maxDataAt
}

// WriteRun batches MAC-line streaks of the write instruction. //tnpu:noalloc
func (t *treeless) WriteRun(ready uint64, segs []isa.Segment, from, off, version uint64, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	r := ready
	left := runBlocks(segs, from)
	inStreak := false
	pending := 0
	for k := range segs {
		addr, n := segAt(segs, k, from, off)
		for i := 0; i < n; {
			// See ReadRun: open (or retry) the streak for the rest.
			if !inStreak && left >= streakMinBlocks {
				inStreak = t.cfg.Bus.BeginSpanRun(&t.cur, w, r, 3*left+16)
			}
			a := addr + uint64(i)*dram.BlockBytes
			if inStreak {
				r, pending = t.writeStreak(r, a, n-i, pending)
				left -= n - i
				break
			}
			m := macRunLen(a, t.cfg.MACSlotBytes)
			if m > n-i {
				m = n - i
			}
			macAccessRun(t.mac, &t.cfg, &t.traffic, r, a, uint64(m), true, true)
			t.traffic.AddWrite(stats.Data, dram.BlockBytes)
			busFree := t.cfg.Bus.TransferAt(r, a, dram.BlockBytes)
			if busFree > maxDataAt {
				maxDataAt = busFree
			}
			r = issueNext(w, busFree, r)
			if m > 1 {
				t.traffic.AddWrite(stats.Data, uint64(m-1)*dram.BlockBytes)
				nr, maxFree, _ := t.cfg.Bus.StreamRun(r, a+dram.BlockBytes, m-1, w)
				r = nr
				if maxFree > maxDataAt {
					maxDataAt = maxFree
				}
			}
			i += m
			left -= m
		}
	}
	if inStreak {
		// Writes complete at their bus-clear time, and a streak segment
		// always ends on deferred data, so the final clear dominates.
		if pending > 0 {
			lastFree, _, nr := t.cur.Data(r, pending)
			r = nr
			if lastFree > maxDataAt {
				maxDataAt = lastFree
			}
		}
		t.cur.Commit()
	}
	return r, maxDataAt
}

// --- baseline (tree-based): batches at counter-line granularity, with
// MAC-line boundaries as sub-events (the two need not nest for ablation
// arity/slot combinations, so the loop walks boundary events generically).
// Instructions of at least streakMinBlocks blocks on a single channel
// additionally stream chunk sequences through one RunCursor (streak.go)
// across all their segments: chunks whose counter access ctrSimple can
// prove append-safe replay in closed form, and any other chunk drops out
// of the streak — before touching state — onto the reference body below,
// rejoining afterwards when enough blocks remain. A segment start opens
// both lines afresh, so it is one more chunk boundary; each segment's MAC
// lines are swept on their own and committed at the segment's end.

// fullChunk returns the blocks per MAC line when the chunk-stretch
// collapse is valid — the MAC slot tiles the line and counter boundaries
// land on chunk starts (see chunkStretch) — else 0. //tnpu:pure
func (b *baseline) fullChunk() int {
	if dram.BlockBytes%b.cfg.MACSlotBytes == 0 {
		if m := int(dram.BlockBytes / b.cfg.MACSlotBytes); b.cfg.TreeArity%uint64(m) == 0 {
			return m
		}
	}
	return 0
}

// ReadRun batches counter-line chunks of the read instruction. //tnpu:noalloc
func (b *baseline) ReadRun(ready uint64, segs []isa.Segment, from, off, version uint64, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	if !b.batchSafe() {
		return segsPerBlock(b, true, ready, segs, from, off, version, w)
	}
	arity := b.cfg.TreeArity
	lat := b.cfg.Bus.Latency()
	r := ready
	cur := &b.cur
	left := runBlocks(segs, from) // blocks from the current segment's start on
	inStreak := left >= streakMinBlocks && b.cfg.Bus.BeginSpanRun(cur, w, r, 5*left+16)
	pending := 0 // deferred data blocks awaiting one streak span charge
	mFull := b.fullChunk()
	for k := range segs {
		addr, n := segAt(segs, k, from, off)
		nextCtr, nextMac := 0, 0
		var ctrCount, macCount uint64
		macSwept := inStreak && b.beginMacSweep(addr, 0, n, false)
		sweepLi := 0 // MAC-line outcomes consumed from the active sweep
		for i := 0; i < n; {
			a := addr + uint64(i)*dram.BlockBytes
			blockIdx := a / dram.BlockBytes
			isCtr := i == nextCtr
			isMac := i == nextMac
			if isCtr {
				cm := int(arity - blockIdx%arity)
				ctrCount = uint64(minInt(cm, n-i))
				nextCtr = i + cm
			}
			if isMac {
				mm := macRunLen(a, b.cfg.MACSlotBytes)
				macCount = uint64(minInt(mm, n-i))
				nextMac = i + mm
			}
			chunkEnd := minInt(minInt(nextCtr, nextMac), n)
			if inStreak && isCtr && !b.ctrSimple(a, max64(r, cur.Horizon())) {
				// A counter access the closed form cannot serve (multi-level
				// walk, busy MSHRs, prefetch fill, or an unsafe eviction
				// cascade): flush the pending span, commit the consumed sweep
				// prefix, and fall back to the reference path for this chunk —
				// no state was touched yet.
				if macSwept {
					b.sweep.CommitPrefix(sweepLi)
					macSwept = false
				}
				if pending > 0 {
					lastFree, lastIssue, nr := cur.Data(r, pending)
					r = nr
					if d := max64(lastFree+lat, lastIssue+b.cfg.OTPCycles) + b.cfg.XORCycles + b.cfg.MACCycles; d > maxDataAt {
						maxDataAt = d
					}
					pending = 0
				}
				cur.Commit()
				inStreak = false
			}
			if inStreak && macSwept && mFull > 0 && isMac && pending == mFull-1 && chunkEnd == i+mFull &&
				b.ctrStretchEntryOK(blockIdx, isCtr) {
				// Stretch of full chunks in one MAC outcome class with resident
				// counters: every chunk charges [span(mFull), MAC metadata] with
				// the counter access free, so the whole stretch is one periodic
				// span (or one plain span when the class is hit). Arrival, issue,
				// and MAC-fetch terms all grow per chunk, so the final chunk
				// dominates the stretch's dataAt. The pending blocks before it
				// may come from an earlier segment: data charges do not depend
				// on the address.
				out0 := b.sweep.Outcome(sweepLi)
				if p := b.chunkStretch(addr, i, n, sweepLi, mFull, out0, false); p >= 2 {
					trail := 0
					if out0.Writeback {
						trail++
					}
					if !out0.Hit {
						trail++
					}
					var lastFree, lastIssue, nr uint64
					ok := true
					if trail == 0 {
						lastFree, lastIssue, nr = cur.Data(r, p*mFull)
					} else {
						lastFree, lastIssue, nr, ok = cur.DataPeriodic(r, p, mFull, 0, trail)
					}
					if ok {
						b.traffic.AddRead(stats.Data, uint64(p*mFull)*dram.BlockBytes)
						if out0.Writeback {
							b.traffic.AddWrite(stats.MAC, uint64(p)*dram.BlockBytes)
						}
						macAt := lastIssue
						if !out0.Hit {
							b.traffic.AddRead(stats.MAC, uint64(p)*dram.BlockBytes)
							// The fetch is each period's last charge, so the final
							// macAt is the horizon plus the bus latency.
							macAt = cur.Horizon() + lat
						}
						b.mac.AddRunHits(uint64(p) * uint64(mFull-1))
						if isCtr && blockIdx%arity != 0 {
							b.ctrPartialHit(blockIdx, ctrCount, false)
						}
						b.ctrStretchHits(addr, i, p, mFull, n, false)
						dataAt := max64(lastFree+lat, lastIssue+b.cfg.OTPCycles)
						dataAt = max64(dataAt+b.cfg.XORCycles, macAt) + b.cfg.MACCycles
						if dataAt > maxDataAt {
							maxDataAt = dataAt
						}
						r = nr
						sweepLi += p
						i += p * mFull
						nextMac = i
						for nextCtr < i {
							nextCtr += int(arity)
						}
						continue
					}
				}
			}
			if inStreak {
				// Streak chunk: ReadBlock's charge order is data first, so the
				// pending span plus this boundary flush before the metadata.
				b.traffic.AddRead(stats.Data, uint64(chunkEnd-i)*dram.BlockBytes)
				lastFree, lastIssue, nr := cur.Data(r, pending+1)
				r = nr
				counterAt := lastIssue
				if isCtr {
					counterAt = b.ctrStreakAccess(cur, lastIssue, a, ctrCount, false)
				}
				macAt := lastIssue
				if isMac {
					if macSwept {
						macAt = b.macSweepAccess(cur, lastIssue, macCount, b.sweep.Outcome(sweepLi), false)
						sweepLi++
					} else {
						macAt = b.macStreakAccess(cur, lastIssue, a, macCount, false)
					}
				}
				dataAt := max64(lastFree+lat, counterAt+b.cfg.OTPCycles)
				dataAt = max64(dataAt+b.cfg.XORCycles, macAt) + b.cfg.MACCycles
				if dataAt > maxDataAt {
					maxDataAt = dataAt
				}
				pending = chunkEnd - (i + 1)
				i = chunkEnd
				continue
			}
			// Boundary block: ReadBlock's operation order (data transfer,
			// counter access + walk, MAC access), with each line-opening access
			// charged for every block it covers in this segment.
			b.traffic.AddRead(stats.Data, dram.BlockBytes)
			busFree := b.cfg.Bus.TransferAt(r, a, dram.BlockBytes)
			counterAt := r
			if isCtr {
				counterAt = b.counterAccessRun(r, a, ctrCount, false)
			}
			macAt := r
			if isMac {
				macAt = macAccessRun(b.mac, &b.cfg, &b.traffic, r, a, macCount, false, false)
			}
			dataAt := max64(busFree+lat, counterAt+b.cfg.OTPCycles)
			dataAt = max64(dataAt+b.cfg.XORCycles, macAt) + b.cfg.MACCycles
			if dataAt > maxDataAt {
				maxDataAt = dataAt
			}
			r = issueNext(w, busFree, r)
			// Covered blocks: counter and MAC hits resolve at the issue time,
			// which the OTP term strictly dominates, so the per-block max
			// collapses to bus arrival vs. last-issue OTP.
			if pure := chunkEnd - (i + 1); pure > 0 {
				b.traffic.AddRead(stats.Data, uint64(pure)*dram.BlockBytes)
				nr, maxFree, lastIssue := b.cfg.Bus.StreamRun(r, a+dram.BlockBytes, pure, w)
				r = nr
				d := max64(maxFree+lat, lastIssue+b.cfg.OTPCycles) + b.cfg.XORCycles + b.cfg.MACCycles
				if d > maxDataAt {
					maxDataAt = d
				}
			}
			i = chunkEnd
			// Rejoin the streak for the rest of the instruction when possible.
			inStreak = left-i >= streakMinBlocks && b.cfg.Bus.BeginSpanRun(cur, w, r, 5*(left-i)+16)
			if inStreak {
				macSwept = b.beginMacSweep(addr, nextMac, n, false)
				sweepLi = 0
			}
		}
		if macSwept && inStreak {
			b.sweep.CommitPrefix(sweepLi)
		}
		left -= n
	}
	if inStreak {
		if pending > 0 {
			lastFree, lastIssue, nr := cur.Data(r, pending)
			r = nr
			if d := max64(lastFree+lat, lastIssue+b.cfg.OTPCycles) + b.cfg.XORCycles + b.cfg.MACCycles; d > maxDataAt {
				maxDataAt = d
			}
		}
		cur.Commit()
	}
	return r, maxDataAt
}

// WriteRun batches counter-line chunks of the write instruction. //tnpu:noalloc
func (b *baseline) WriteRun(ready uint64, segs []isa.Segment, from, off, version uint64, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	if !b.batchSafe() {
		return segsPerBlock(b, false, ready, segs, from, off, version, w)
	}
	arity := b.cfg.TreeArity
	r := ready
	cur := &b.cur
	left := runBlocks(segs, from) // blocks from the current segment's start on
	inStreak := left >= streakMinBlocks && b.cfg.Bus.BeginSpanRun(cur, w, r, 5*left+16)
	pending := 0 // deferred data blocks awaiting one streak span charge
	mFull := b.fullChunk()
	for k := range segs {
		addr, n := segAt(segs, k, from, off)
		if b.overflowPending(addr, n) {
			// A minor-counter overflow mid-segment emits a re-encryption
			// burst between two data blocks; segments about to overflow (at
			// most one write in 128 to any line) leave the streak and take
			// the reference path so the burst lands exactly where the
			// per-block model puts it.
			if inStreak {
				if pending > 0 {
					lastFree, _, nr := cur.Data(r, pending)
					r = nr
					if lastFree > maxDataAt {
						maxDataAt = lastFree
					}
					pending = 0
				}
				cur.Commit()
			}
			var d uint64
			r, d = runPerBlock(b, false, r, addr, version, n, w)
			if d > maxDataAt {
				maxDataAt = d
			}
			left -= n
			inStreak = left >= streakMinBlocks && b.cfg.Bus.BeginSpanRun(cur, w, r, 5*left+16)
			continue
		}
		nextCtr, nextMac := 0, 0
		var ctrCount, macCount uint64
		var minorLine *[integrity.Arity]uint8
		macSwept := inStreak && b.beginMacSweep(addr, 0, n, true)
		sweepLi := 0 // MAC-line outcomes consumed from the active sweep
		for i := 0; i < n; {
			a := addr + uint64(i)*dram.BlockBytes
			blockIdx := a / dram.BlockBytes
			isCtr := i == nextCtr
			isMac := i == nextMac
			if isCtr {
				cm := int(arity - blockIdx%arity)
				ctrCount = uint64(minInt(cm, n-i))
				nextCtr = i + cm
			}
			if isMac {
				mm := macRunLen(a, b.cfg.MACSlotBytes)
				macCount = uint64(minInt(mm, n-i))
				nextMac = i + mm
			}
			chunkEnd := minInt(minInt(nextCtr, nextMac), n)
			lineIdx, slot := b.geo.CounterIndex(blockIdx)
			if inStreak && isCtr && !b.ctrSimple(a, max64(r, cur.Horizon())) {
				// See ReadRun: hand this chunk to the reference path untouched.
				if macSwept {
					b.sweep.CommitPrefix(sweepLi)
					macSwept = false
				}
				if pending > 0 {
					lastFree, _, nr := cur.Data(r, pending)
					r = nr
					if lastFree > maxDataAt {
						maxDataAt = lastFree
					}
					pending = 0
				}
				cur.Commit()
				inStreak = false
			}
			if inStreak && macSwept && mFull > 0 && isMac && chunkEnd == i+mFull &&
				b.ctrStretchEntryOK(blockIdx, isCtr) {
				// Stretch of full chunks in one MAC outcome class with resident
				// counters (see ReadRun): hit chunks charge nothing on the
				// write-validated path and fold into the pending span; miss
				// chunks each flush the deferred previous chunk and append the
				// victim writeback and RMW fetch — one period DataPeriodic
				// repeats when pending is exactly mFull.
				out0 := b.sweep.Outcome(sweepLi)
				if p := b.chunkStretch(addr, i, n, sweepLi, mFull, out0, true); p >= 2 {
					if out0.Hit {
						b.traffic.AddWrite(stats.Data, uint64(p*mFull)*dram.BlockBytes)
						b.mac.AddRunHits(uint64(p) * uint64(mFull-1))
						if isCtr && blockIdx%arity != 0 {
							b.ctrPartialHit(blockIdx, ctrCount, true)
						}
						b.ctrStretchHits(addr, i, p, mFull, n, true)
						b.minorStretchBump(addr, i, p*mFull)
						pending += p * mFull
						sweepLi += p
						i += p * mFull
						nextMac = i
						for nextCtr < i {
							nextCtr += int(arity)
						}
						// Keep minorLine current for a mid-line successor chunk.
						li2, _ := b.geo.CounterIndex(addr/dram.BlockBytes + uint64(i))
						minorLine = b.minors[li2]
						continue
					}
					if pending == mFull {
						trail := 1
						if out0.Writeback {
							trail = 2 // victim writeback precedes the RMW fetch
						}
						if lastFree, _, nr, ok := cur.DataPeriodic(r, p, mFull, 0, trail); ok {
							b.traffic.AddWrite(stats.Data, uint64(p*mFull)*dram.BlockBytes)
							b.traffic.AddRead(stats.MAC, uint64(p)*dram.BlockBytes)
							if out0.Writeback {
								b.traffic.AddWrite(stats.MAC, uint64(p)*dram.BlockBytes)
							}
							b.mac.AddRunHits(uint64(p) * uint64(mFull-1))
							if isCtr && blockIdx%arity != 0 {
								b.ctrPartialHit(blockIdx, ctrCount, true)
							}
							b.ctrStretchHits(addr, i, p, mFull, n, true)
							b.minorStretchBump(addr, i, p*mFull)
							if lastFree > maxDataAt {
								maxDataAt = lastFree
							}
							r = nr
							sweepLi += p
							i += p * mFull
							nextMac = i
							for nextCtr < i {
								nextCtr += int(arity)
							}
							// pending stays mFull: the final chunk's data is the
							// deferred span the next flush charges.
							li2, _ := b.geo.CounterIndex(addr/dram.BlockBytes + uint64(i))
							minorLine = b.minors[li2]
							continue
						}
					}
				}
			}
			if inStreak {
				// WriteBlock charges metadata before data, so a chunk whose
				// lines are both resident (hence chargeless) folds straight into
				// the pending span; otherwise the deferred data of earlier
				// chunks lands first, then the metadata charges, then this
				// chunk's data joins a fresh span. With an active sweep the MAC
				// residency question is answered by the outcome (the cache
				// itself is stale until CommitPrefix).
				var macRes cache.Result
				macHit := true
				if isMac {
					if macSwept {
						macRes = b.sweep.Outcome(sweepLi)
						macHit = macRes.Hit
					} else {
						macHit = b.mac.Probe(macLineAddr(a, b.cfg.MACSlotBytes))
					}
				}
				clean := (!isCtr || b.counter.Probe(b.geo.NodeAddr(0, lineIdx))) && macHit
				if !clean && pending > 0 {
					lastFree, _, nr := cur.Data(r, pending)
					r = nr
					if lastFree > maxDataAt {
						maxDataAt = lastFree
					}
					pending = 0
				}
				if isCtr {
					if clean {
						b.counter.Access(b.geo.NodeAddr(0, lineIdx), true)
						b.counter.AddRunHits(ctrCount - 1)
					} else {
						// A walk's completion can outlast the run's final bus
						// clear, so it feeds maxDataAt directly.
						if counterAt := b.ctrStreakAccess(cur, r, a, ctrCount, true); counterAt > maxDataAt {
							maxDataAt = counterAt
						}
					}
					minorLine = b.minors[lineIdx]
					if minorLine == nil {
						// First touch of this counter line; every later run
						// reuses it, so steady state stays at 0 allocs/op.
						minorLine = new([integrity.Arity]uint8) //tnpu:allocok
						b.minors[lineIdx] = minorLine
					}
				}
				for j := 0; j < chunkEnd-i; j++ {
					minorLine[slot+j]++
				}
				if isMac {
					if macSwept {
						if clean {
							// Hit: CommitPrefix applies the lookup, promotion,
							// and dirtying of the sweep's write access.
							b.mac.AddRunHits(macCount - 1)
						} else {
							b.macSweepAccess(cur, r, macCount, macRes, true)
						}
						sweepLi++
					} else if clean {
						b.mac.Access(macLineAddr(a, b.cfg.MACSlotBytes), true)
						b.mac.AddRunHits(macCount - 1)
					} else {
						b.macStreakAccess(cur, r, a, macCount, true)
					}
				}
				b.traffic.AddWrite(stats.Data, uint64(chunkEnd-i)*dram.BlockBytes)
				pending += chunkEnd - i
				i = chunkEnd
				continue
			}
			// Boundary block: WriteBlock's operation order (counter RMW, minor
			// bump, MAC update, data transfer).
			counterAt := r
			if isCtr {
				counterAt = b.counterAccessRun(r, a, ctrCount, true)
				minorLine = b.minors[lineIdx]
				if minorLine == nil {
					// First touch of this counter line; every later run
					// reuses it, so steady state stays at 0 allocs/op.
					minorLine = new([integrity.Arity]uint8) //tnpu:allocok
					b.minors[lineIdx] = minorLine
				}
			}
			minorLine[slot]++
			if isMac {
				macAccessRun(b.mac, &b.cfg, &b.traffic, r, a, macCount, true, false)
			}
			b.traffic.AddWrite(stats.Data, dram.BlockBytes)
			busFree := b.cfg.Bus.TransferAt(r, a, dram.BlockBytes)
			if d := max64(busFree, counterAt); d > maxDataAt {
				maxDataAt = d
			}
			r = issueNext(w, busFree, r)
			// Covered blocks: cache hits and overflow-free minor bumps; the
			// write path completes at each block's bus-clear time.
			if pure := chunkEnd - (i + 1); pure > 0 {
				for j := 1; j <= pure; j++ {
					minorLine[slot+j]++
				}
				b.traffic.AddWrite(stats.Data, uint64(pure)*dram.BlockBytes)
				nr, maxFree, _ := b.cfg.Bus.StreamRun(r, a+dram.BlockBytes, pure, w)
				r = nr
				if maxFree > maxDataAt {
					maxDataAt = maxFree
				}
			}
			i = chunkEnd
			// Rejoin the streak for the rest of the instruction when possible.
			inStreak = left-i >= streakMinBlocks && b.cfg.Bus.BeginSpanRun(cur, w, r, 5*(left-i)+16)
			if inStreak {
				macSwept = b.beginMacSweep(addr, nextMac, n, true)
				sweepLi = 0
			}
		}
		if macSwept && inStreak {
			b.sweep.CommitPrefix(sweepLi)
		}
		left -= n
	}
	if inStreak {
		if pending > 0 {
			lastFree, _, nr := cur.Data(r, pending)
			r = nr
			if lastFree > maxDataAt {
				maxDataAt = lastFree
			}
		}
		cur.Commit()
	}
	return r, maxDataAt
}

// overflowPending reports whether writing blocks [addr, addr+n*64) would
// wrap any 7-bit minor counter (pre-increment value 127): each block in a
// run bumps a distinct slot, so a scan of the covered slots decides it.
//
//tnpu:pure
func (b *baseline) overflowPending(addr uint64, n int) bool {
	blockIdx := addr / dram.BlockBytes
	for i := 0; i < n; {
		lineIdx, slot := b.geo.CounterIndex(blockIdx + uint64(i))
		span := int(b.cfg.TreeArity) - slot
		if span > n-i {
			span = n - i
		}
		if line := b.minors[lineIdx]; line != nil {
			for s := slot; s < slot+span; s++ {
				if line[s] == 1<<7-1 {
					return true
				}
			}
		}
		i += span
	}
	return false
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
