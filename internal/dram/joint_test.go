package dram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// busBehaviour renders a bus's behavioural state — every channel's horizon,
// carried remainder, and remembered idle gaps — for twin comparisons.
// Byte/cycle accumulators are compared separately.
func busBehaviour(b *Bus) string {
	s := fmt.Sprintf("lat=%d", b.latency)
	for i := range b.chans {
		c := &b.chans[i]
		s += fmt.Sprintf(" [%d/%d busy=%d rem=%d maxGapEnd=%d gaps=%v]", c.num, c.den, c.busyUntil, c.rem, c.maxGapEnd, c.gaps)
	}
	return s
}

// windowState renders an issue window's outstanding clear times in ring
// order from its cursor, so windows that differ only by rotation match.
func windowState(w *IssueWindow) string {
	out := make([]uint64, 0, len(w.slots))
	for k := range w.slots {
		out = append(out, w.slots[(w.idx+k)%len(w.slots)])
	}
	return fmt.Sprint(out)
}

// refJoint is the block-granular reference a JointCursor replaces: k
// clients, each with its own issue window, served earliest-ready first
// (ties rotating from the last served) on one shared bus.
type refJoint struct {
	bus   *Bus
	wins  []*IssueWindow
	ready []uint64
	last  int
}

// pick returns the client the reference serves next.
func (r *refJoint) pick() int {
	k := len(r.wins)
	best := -1
	for off := 1; off <= k; off++ {
		i := (r.last + off) % k
		if best < 0 || r.ready[i] < r.ready[best] {
			best = i
		}
	}
	return best
}

// serve charges one data block for client i at its ready time and returns
// the block's clear time and issue time.
func (r *refJoint) serve(i int) (clear, issue uint64) {
	issue = r.ready[i]
	clear = r.bus.TransferAt(issue, 0, BlockBytes)
	next := r.wins[i].Note(clear)
	if next < issue+1 {
		next = issue + 1
	}
	r.ready[i] = next
	r.last = i
	return clear, issue
}

// TestJointCursorMatchesReference saturates k clients on twin buses through
// the per-block reference, then serves a random stretch through a
// JointCursor on one twin — metadata charges interleaved at random tokens,
// before or after the token's data, and runs extended past a client's end
// — and the reference on the other. Every owner, issue time and clear must
// agree token by token, and the buses and windows must be identical after
// Commit.
func TestJointCursorMatchesReference(t *testing.T) {
	awkwardCfg := Config{FreqHz: 3_000_000_000, BandwidthBytesPerSec: 7_000_000_000, LatencyCycles: 10}
	for ci, cfg := range []Config{smallCfg, largeCfg, awkwardCfg} {
		for k := 2; k <= MaxJointClients; k++ {
			rng := rand.New(rand.NewSource(int64(ci*10 + k)))
			mk := func() *refJoint {
				r := &refJoint{bus: NewBus(cfg), ready: make([]uint64, k)}
				for i := 0; i < k; i++ {
					r.wins = append(r.wins, NewIssueWindow(16))
				}
				return r
			}
			fast, ref := mk(), mk()
			var jc JointCursor
			admitted, continued := 0, 0
			for round := 0; round < 40; round++ {
				// Reference warm-up (both twins): long enough to saturate.
				for n := 0; n < 16*k+rng.Intn(64); n++ {
					i := ref.pick()
					if fi := fast.pick(); fi != i {
						t.Fatalf("twins diverged in warm-up")
					}
					ref.serve(i)
					fast.serve(i)
				}
				rem := make([]uint64, k)
				for i := range rem {
					rem[i] = 1 + uint64(rng.Intn(300))
				}
				if v := fast.bus.BeginJointRun(&jc, fast.wins, fast.ready, rem, 2); v != JointOK {
					continue // still filling: the next round warms further
				}
				admitted++
				served := make([]uint64, k)
				for leg := 0; ; leg++ {
					for T := jc.Tokens(); T <= jc.End(); T++ {
						i := jc.Owner(T)
						if ri := ref.pick(); ri != i {
							t.Fatalf("cfg %d k=%d round %d token %d: owner %d, reference serves %d", ci, k, round, T, i, ri)
						}
						if got := jc.Token(i, served[i]); got != T {
							t.Fatalf("token %d: Token(%d,%d) = %d", T, i, served[i], got)
						}
						if got := jc.TokenOffset(i, served[i]); got != jc.Offset(T) {
							t.Fatalf("token %d: TokenOffset = %d, want %d", T, got, jc.Offset(T))
						}
						if got := jc.Served(i, T); got != served[i] {
							t.Fatalf("token %d: Served(%d) = %d, want %d", T, i, got, served[i])
						}
						if back := uint64(rng.Intn(32*k + 1)); back <= T {
							from := T - back
							// Owners: distinct owners of [from, T), oldest last token first.
							var want []int
							for tok := from; tok < T; tok++ {
								o := jc.Owner(tok)
								for w, x := range want {
									if x == o {
										want = append(want[:w], want[w+1:]...)
										break
									}
								}
								want = append(want, o)
							}
							var got [MaxJointClients]int
							n := jc.Owners(from, T, jc.Offset(T), got[:])
							if fmt.Sprint(got[:n]) != fmt.Sprint(want) {
								t.Fatalf("token %d: Owners(%d) = %v, want %v", T, from, got[:n], want)
							}
						}
						issue := jc.Issue(T)
						metaFirst := rng.Intn(5) == 0
						nMeta := rng.Intn(3)
						if metaFirst && nMeta > 0 {
							fAt := jc.Meta(nMeta)
							var rAt uint64
							for m := 0; m < nMeta; m++ {
								rAt = ref.bus.TransferAt(ref.ready[i], 0, BlockBytes)
							}
							if fAt != rAt {
								t.Fatalf("token %d: leading Meta = %d, reference %d", T, fAt, rAt)
							}
						}
						rClear, rIssue := ref.serve(i)
						if issue != rIssue {
							t.Fatalf("cfg %d k=%d round %d token %d: issue %d, reference %d", ci, k, round, T, issue, rIssue)
						}
						if rng.Intn(3) == 0 {
							jc.Skip(T)
						}
						if got := jc.Data(); got != rClear {
							t.Fatalf("token %d: clear %d, reference %d", T, got, rClear)
						}
						if !metaFirst && nMeta > 0 && rng.Intn(4) == 0 {
							fAt := jc.Meta(nMeta)
							var rAt uint64
							for m := 0; m < nMeta; m++ {
								rAt = ref.bus.TransferAt(rIssue, 0, BlockBytes)
							}
							if fAt != rAt {
								t.Fatalf("token %d: trailing Meta = %d, reference %d", T, fAt, rAt)
							}
						}
						served[i]++
					}
					if leg == 2 || rng.Intn(3) == 0 {
						break
					}
					// The client that just finished goes on with a new
					// instruction at its next FIFO slot: the channel is
					// committed (as around its machine's step) and the run
					// re-bounded.
					jc.CommitChannel()
					if a, b := busBehaviour(fast.bus), busBehaviour(ref.bus); a != b {
						t.Fatalf("cfg %d k=%d round %d: bus diverged at CommitChannel", ci, k, round)
					}
					if jc.ChannelMoved() {
						t.Fatal("ChannelMoved after an untouched CommitChannel")
					}
					done := jc.Owner(jc.End())
					rem[done] = served[done] + 1 + uint64(rng.Intn(300))
					if !jc.SetEnd(rem, 2) {
						t.Fatal("SetEnd refused a short extension")
					}
					continued++
				}
				for i := 0; i < k; i++ {
					if got := jc.Issue(jc.Token(i, served[i])); got != ref.ready[i] {
						t.Fatalf("round %d: client %d next issue %d, reference %d", round, i, got, ref.ready[i])
					}
				}
				jc.Commit()
				for i := 0; i < k; i++ {
					fast.ready[i] = ref.ready[i]
				}
				fast.last = ref.last
				if a, b := busBehaviour(fast.bus), busBehaviour(ref.bus); a != b {
					t.Fatalf("cfg %d k=%d round %d: bus state diverged after Commit", ci, k, round)
				}
				if fast.bus.BytesMoved() != ref.bus.BytesMoved() || fast.bus.BusyCycles() != ref.bus.BusyCycles() {
					t.Fatalf("round %d: bus accumulators diverged", round)
				}
				for i := 0; i < k; i++ {
					if a, b := windowState(fast.wins[i]), windowState(ref.wins[i]); a != b {
						t.Fatalf("cfg %d k=%d round %d: client %d window diverged after Commit", ci, k, round, i)
					}
				}
			}
			if admitted < 30 || continued < 10 {
				t.Fatalf("cfg %d k=%d: only %d of 40 rounds admitted, %d continued", ci, k, admitted, continued)
			}
		}
	}
}

// TestJointCursorRefusals pins the admission verdicts the multi-NPU
// fallback counters report.
func TestJointCursorRefusals(t *testing.T) {
	var jc JointCursor
	two := Config{FreqHz: smallCfg.FreqHz, BandwidthBytesPerSec: smallCfg.BandwidthBytesPerSec, Channels: 2}
	wins := []*IssueWindow{NewIssueWindow(4), NewIssueWindow(4)}
	rem := []uint64{8, 8}
	if v := NewBus(two).BeginJointRun(&jc, wins, []uint64{0, 0}, rem, 0); v != JointMultiChannel {
		t.Fatalf("two-channel bus: verdict %d, want JointMultiChannel", v)
	}
	bus := NewBus(smallCfg)
	// Filling windows (all-zero slots) are not gate-dominated.
	if v := bus.BeginJointRun(&jc, wins, []uint64{0, 0}, rem, 0); v != JointNotSaturated {
		t.Fatalf("empty windows: verdict %d, want JointNotSaturated", v)
	}
	var clears []uint64
	for i := 0; i < 8; i++ {
		clears = append(clears, bus.TransferAt(0, 0, BlockBytes))
	}
	for i, c := range clears {
		wins[i%2].Note(c)
	}
	issue := []uint64{wins[0].Oldest(), wins[1].Oldest()}
	if v := bus.BeginJointRun(&jc, wins, []uint64{issue[0] + 1, issue[1]}, rem, 0); v != JointNotSaturated {
		t.Fatalf("issue past the gate: verdict %d, want JointNotSaturated", v)
	}
	// A remembered gap the earliest ready time could backfill.
	gapped := NewBus(smallCfg)
	for i := 0; i < 8; i++ {
		gapped.TransferAt(0, 0, BlockBytes)
	}
	gapped.TransferAt(10_000, 0, BlockBytes)
	if v := gapped.BeginJointRun(&jc, wins, issue, rem, 0); v != JointGap {
		t.Fatalf("backfillable gap: verdict %d, want JointGap", v)
	}
	if v := bus.BeginJointRun(&jc, wins, issue, rem, 0); v != JointOK {
		t.Fatalf("saturated windows: verdict %d, want JointOK", v)
	}
	jc.Commit()
}

// TestWideGapMask keeps the block-scan index honest: after every transfer
// of a random mix — block and odd sizes, ready times behind, at, and past
// the horizon so gaps open, split, shrink, fill, and age out — each bit of
// wide must say exactly whether its gap can hold a minimum-cost block.
func TestWideGapMask(t *testing.T) {
	for ci, cfg := range []Config{smallCfg, largeCfg, {FreqHz: 3_000_000_000, BandwidthBytesPerSec: 7_000_000_000}} {
		rng := rand.New(rand.NewSource(int64(ci)))
		bus := NewBus(cfg)
		c := &bus.chans[0]
		for step := 0; step < 20000; step++ {
			now := bus.Now()
			ready := now
			switch rng.Intn(4) {
			case 0:
				ready = now + uint64(rng.Intn(200)) // opens a gap
			case 1, 2:
				if back := uint64(rng.Intn(600)); back < now {
					ready = now - back // may backfill
				}
			}
			bytes := uint64(BlockBytes)
			if rng.Intn(8) == 0 {
				bytes = uint64(rng.Intn(300))
			}
			bus.TransferAt(ready, 0, bytes)
			var want uint64
			for i, g := range c.gaps {
				if g.end-g.start >= c.q64 {
					want |= 1 << uint(i)
				}
			}
			if c.wide != want {
				t.Fatalf("cfg %d step %d: wide = %064b, want %064b", ci, step, c.wide, want)
			}
		}
	}
}

// TestLiveGapMask pins the live-gap mask to a full scan: a twin bus whose
// mask is reset to "every gap live" before each request serves the same
// random mix of block and odd-sized transfers (opening gaps, backfilling
// them, and arriving below an earlier frontier) with identical results
// and gaps, and the mask always covers every gap ending at or after
// liveFrom.
func TestLiveGapMask(t *testing.T) {
	for ci, cfg := range []Config{smallCfg, largeCfg, {FreqHz: 3_000_000_000, BandwidthBytesPerSec: 7_000_000_000}} {
		rng := rand.New(rand.NewSource(int64(ci)))
		bus, twin := NewBus(cfg), NewBus(cfg)
		c, tc := &bus.chans[0], &twin.chans[0]
		for step := 0; step < 20000; step++ {
			now := bus.Now()
			ready := now
			switch rng.Intn(4) {
			case 0:
				ready = now + uint64(rng.Intn(200)) // opens a gap
			case 1, 2:
				if back := uint64(rng.Intn(600)); back < now {
					ready = now - back // may backfill, or fall below the frontier
				}
			}
			bytes := uint64(BlockBytes)
			if rng.Intn(8) == 0 {
				bytes = uint64(rng.Intn(300))
			}
			tc.live, tc.liveFrom = ^uint64(0), 0
			got, want := bus.TransferAt(ready, 0, bytes), twin.TransferAt(ready, 0, bytes)
			if got != want || c.busyUntil != tc.busyUntil || c.rem != tc.rem || !reflect.DeepEqual(c.gaps, tc.gaps) {
				t.Fatalf("cfg %d step %d: masked scan diverges from the full scan (done %d vs %d)", ci, step, got, want)
			}
			for i, g := range c.gaps {
				if g.end >= c.liveFrom && c.live&(1<<uint(i)) == 0 {
					t.Fatalf("cfg %d step %d: gap %d ends at %d, at or after liveFrom %d, but is not live", ci, step, i, g.end, c.liveFrom)
				}
			}
		}
	}
}
