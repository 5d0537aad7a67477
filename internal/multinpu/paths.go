package multinpu

import (
	"fmt"
	"strings"
	"sync"

	"tnpu/internal/memprot"
	"tnpu/internal/npu"
)

// PathBlocks splits served blocks by execution path, and counts the
// engine calls the burst path made.
type PathBlocks struct {
	Joint uint64 // served by the co-tenant joint path
	Burst uint64 // served by whole-run bursts (ServeRun)
	Block uint64 // served one at a time (ServeBlock)
	// Calls counts RunEngine calls: one per burst-served instruction,
	// however many segments it has.
	Calls uint64
}

// PathStats is the execution-path breakdown of co-tenant (count >= 2)
// simulations: deterministic work counters for the performance ledger.
// They are kept out of Result and the cell store on purpose, so persisted
// results and their digests do not depend on which path served a block.
type PathStats struct {
	// NPUs[i] splits NPU i's blocks by path (one entry per NPU of a run;
	// process totals collapse into a single entry).
	NPUs []PathBlocks
	// JointRuns counts joint runs that served at least one block, and
	// JointEnds why each ended (normally memprot.JointInstrEnd).
	JointRuns uint64
	JointEnds [memprot.NumJointStops]uint64
	// Fallbacks counts contended arbitration scans that did not take the
	// joint path, by reason; a scan skipped by the refusal backoff counts
	// under the refusal that armed it.
	Fallbacks [memprot.NumJointStops]uint64
}

// note records each machine's per-path block split.
func (ps *PathStats) note(machines []*npu.Machine) {
	ps.NPUs = ps.NPUs[:0]
	for _, m := range machines {
		j, b, s := m.PathBlocks()
		ps.NPUs = append(ps.NPUs, PathBlocks{Joint: j, Burst: b, Block: s, Calls: m.EngineRuns()})
	}
}

// Sum returns the blocks per path over all NPUs.
func (ps *PathStats) Sum() PathBlocks {
	var t PathBlocks
	for _, n := range ps.NPUs {
		t.Joint += n.Joint
		t.Burst += n.Burst
		t.Block += n.Block
		t.Calls += n.Calls
	}
	return t
}

// String renders the counters on one line: blocks per path, engine run
// calls, joint runs by end, and fallbacks by reason (zero counts omitted).
func (ps *PathStats) String() string {
	t := ps.Sum()
	var b strings.Builder
	fmt.Fprintf(&b, "blocks joint %d, burst %d, block %d; run calls %d; joint runs %d", t.Joint, t.Burst, t.Block, t.Calls, ps.JointRuns)
	writeReasons(&b, &ps.JointEnds)
	b.WriteString("; fallbacks")
	writeReasons(&b, &ps.Fallbacks)
	return b.String()
}

// writeReasons appends " (reason n, ...)" for the non-zero counts.
func writeReasons(b *strings.Builder, counts *[memprot.NumJointStops]uint64) {
	sep := " ("
	for r, n := range counts {
		if n > 0 {
			fmt.Fprintf(b, "%s%s %d", sep, memprot.JointStop(r), n)
			sep = ", "
		}
	}
	if sep == ", " {
		b.WriteString(")")
	} else {
		b.WriteString(" none")
	}
}

// totals accumulates the counters of every multi-NPU simulation in the
// process, for tnpu-bench -v.
var totals pathTotals

type pathTotals struct {
	mu sync.Mutex
	s  PathStats
}

func (p *pathTotals) add(ps *PathStats) {
	sum := ps.Sum()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.s.NPUs) == 0 {
		p.s.NPUs = make([]PathBlocks, 1)
	}
	p.s.NPUs[0].Joint += sum.Joint
	p.s.NPUs[0].Burst += sum.Burst
	p.s.NPUs[0].Block += sum.Block
	p.s.NPUs[0].Calls += sum.Calls
	p.s.JointRuns += ps.JointRuns
	for r := range ps.JointEnds {
		p.s.JointEnds[r] += ps.JointEnds[r]
		p.s.Fallbacks[r] += ps.Fallbacks[r]
	}
}

// PathTotals returns the execution-path counters summed over every
// multi-NPU simulation this process ran (cache hits simulate nothing and
// add nothing).
func PathTotals() PathStats {
	totals.mu.Lock()
	defer totals.mu.Unlock()
	out := totals.s
	out.NPUs = append([]PathBlocks(nil), totals.s.NPUs...)
	return out
}
