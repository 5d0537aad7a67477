package multinpu

import (
	"fmt"
	"reflect"
	"testing"

	"tnpu/internal/compiler"
	"tnpu/internal/dram"
	"tnpu/internal/isa"
	"tnpu/internal/memprot"
	"tnpu/internal/model"
	"tnpu/internal/npu"
	"tnpu/internal/tensor"
)

// stripRuns zeroes the execution-path-dependent observability counter:
// the block-granular reference serves no engine-level run bursts, so Runs
// is the one Result field allowed to differ between the paths.
func stripRuns(r Result) Result {
	r.NPUs = append([]NPUStats(nil), r.NPUs...)
	for i := range r.NPUs {
		r.NPUs[i].Runs = 0
	}
	return r
}

// diffMulti runs the same multi-NPU workload through the block-granular
// reference and the horizon-bounded arbitration loop and requires exact
// agreement on every observable except NPUStats.Runs.
func diffMulti(t *testing.T, progs []*compiler.Program, scheme memprot.Scheme, cfg npu.Config) {
	t.Helper()
	ForceBlockInterleave(true)
	ref, errRef := RunMixed(progs, scheme, cfg)
	ForceBlockInterleave(false)
	arb, errArb := RunMixed(progs, scheme, cfg)
	if (errRef == nil) != (errArb == nil) {
		t.Fatalf("error divergence: block=%v arbitrated=%v", errRef, errArb)
	}
	if errRef != nil {
		return
	}
	if got, want := stripRuns(arb), stripRuns(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("horizon-bounded arbitration diverges from block interleave (scheme %v, cfg %s):\n  block:      %+v\n  arbitrated: %+v",
			scheme, cfg.Name, want, got)
	}
}

// TestMultiNPUDifferential is the multi-NPU leg of the differential
// harness: all schemes x count 2-3 x df/res x Small/Large NPUs. -short
// keeps the df/Small column only.
func TestMultiNPUDifferential(t *testing.T) {
	for _, cfg := range []npu.Config{npu.SmallNPU(), npu.LargeNPU()} {
		for _, short := range []string{"df", "res"} {
			if testing.Short() && (cfg.Name != "small" || short != "df") {
				continue
			}
			prog := compileFor(t, short, cfg)
			for _, scheme := range memprot.AllSchemes() {
				for count := 2; count <= 3; count++ {
					t.Run(fmt.Sprintf("%s/%s/%s/x%d", cfg.Name, short, scheme, count), func(t *testing.T) {
						progs := make([]*compiler.Program, count)
						for i := range progs {
							progs[i] = prog
						}
						diffMulti(t, progs, scheme, cfg)
					})
				}
			}
		}
	}
}

// TestMixedTenancyDifferential pins the arbitration equivalence when the
// co-tenants run different models (desynchronized readiness patterns).
func TestMixedTenancyDifferential(t *testing.T) {
	cfg := npu.SmallNPU()
	df := compileFor(t, "df", cfg)
	res := compileFor(t, "res", cfg)
	for _, scheme := range memprot.AllSchemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			diffMulti(t, []*compiler.Program{df, res}, scheme, cfg)
		})
	}
}

// TestRunCachedReplay pins the joint-run cache: a second identical run is
// a hit and returns a result equal to the computed one, deep-copied so
// caller mutation cannot poison the cache.
func TestRunCachedReplay(t *testing.T) {
	cfg := npu.SmallNPU()
	prog := compileFor(t, "df", cfg)
	cache := NewRunCache()
	first, err := RunCached(prog, memprot.TreeLess, cfg, 2, nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunCached(prog, memprot.TreeLess, cfg, 2, nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cache replay differs:\n  computed: %+v\n  replayed: %+v", first, second)
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	second.PerNPU[0] = 0xdead
	second.NPUs[0].Blocks = 0xdead
	third, err := RunCached(prog, memprot.TreeLess, cfg, 2, nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, third) {
		t.Fatal("mutating a returned result poisoned the cache")
	}
	// Mixed tenancy caches under its own key.
	res := compileFor(t, "res", cfg)
	mixed, err := RunMixedCached([]*compiler.Program{prog, res}, memprot.TreeLess, cfg, nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	mixed2, err := RunMixedCached([]*compiler.Program{prog, res}, memprot.TreeLess, cfg, nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mixed, mixed2) {
		t.Fatal("mixed-tenancy cache replay differs")
	}
	if mixed.Cycles == first.Cycles {
		t.Fatal("mixed-tenancy run unexpectedly identical to homogeneous run")
	}
}

// TestPerNPUAttribution sanity-checks the satellite counters: every NPU
// moved blocks, bytes match block counts, homogeneous co-tenants moved
// identical block counts, and the arbitrated path reports run bursts.
func TestPerNPUAttribution(t *testing.T) {
	cfg := npu.SmallNPU()
	prog := compileFor(t, "df", cfg)
	r, err := Run(prog, memprot.TreeLess, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.NPUs) != 2 {
		t.Fatalf("NPUs has %d entries, want 2", len(r.NPUs))
	}
	for i, s := range r.NPUs {
		if s.Cycles != r.PerNPU[i] {
			t.Errorf("NPU %d: stats cycles %d != PerNPU %d", i, s.Cycles, r.PerNPU[i])
		}
		if s.Blocks == 0 {
			t.Errorf("NPU %d moved no blocks", i)
		}
		if s.ReadBytes+s.WriteBytes != s.Blocks*dram.BlockBytes {
			t.Errorf("NPU %d: %d read + %d written bytes != %d blocks * %d",
				i, s.ReadBytes, s.WriteBytes, s.Blocks, dram.BlockBytes)
		}
	}
	if r.NPUs[0].Blocks != r.NPUs[1].Blocks {
		t.Errorf("homogeneous co-tenants moved different block counts: %d vs %d", r.NPUs[0].Blocks, r.NPUs[1].Blocks)
	}
	if r.NPUs[0].Runs == 0 && r.NPUs[1].Runs == 0 {
		t.Error("arbitrated path reported zero run bursts for both NPUs")
	}
}

// --- fuzz ------------------------------------------------------------------

type fuzzReader struct {
	data []byte
	pos  int
}

func (f *fuzzReader) byte() byte {
	if f.pos >= len(f.data) {
		return 0
	}
	b := f.data[f.pos]
	f.pos++
	return b
}

func (f *fuzzReader) u16() uint64 { return uint64(f.byte())<<8 | uint64(f.byte()) }

// buildMultiFuzzProgram derives a small synthetic program hunting the
// arbitration boundaries: mixed DMA/compute instructions whose segment
// sizes produce runs that straddle the co-tenant's ready time, compute
// stalls that desynchronize otherwise-lockstep machines, and a
// counter-hammer that parks a minor counter one short of / exactly at /
// one past the 7-bit wrap so the baseline burst guard's edge lands inside
// a would-be streak.
func buildMultiFuzzProgram(f *fuzzReader) *compiler.Program {
	var tr isa.Trace
	nInstr := 2 + int(f.byte()%8)
	for i := 0; i < nInstr; i++ {
		var in isa.Instr
		switch f.byte() % 8 {
		case 0, 1, 2:
			in.Op = isa.OpMvIn
		case 3, 4:
			in.Op = isa.OpMvOut
		case 5:
			in.Op = isa.OpCompute
			in.Cycles = 1 + f.u16()
		case 6:
			// Long dense segment: a run big enough that the horizon clip
			// must split it against the co-tenant's readiness.
			in.Op = isa.OpMvIn
			in.Tensor = tensor.ID(f.byte() % 8)
			in.Tile = int(f.byte() % 16)
			in.Version = uint64(f.byte() % 5)
			blocks := 256 + f.u16()%2048
			in.Segments = append(in.Segments, isa.Segment{Addr: f.u16() * 64, Bytes: blocks * dram.BlockBytes})
		default:
			// Near-overflow hammer: rewrite one aligned range 126/127/128
			// times so the baseline write-burst guard (overflowPending)
			// trips exactly at, one before, or one past the wrap.
			in.Op = isa.OpMvOut
			in.Tensor = tensor.ID(f.byte() % 8)
			in.Tile = int(f.byte() % 16)
			in.Version = uint64(f.byte() % 5)
			span := isa.Segment{Addr: f.u16() * 64, Bytes: (1 + f.u16()%32) * dram.BlockBytes}
			rep := 126 + int(f.byte()%3)
			for j := 0; j < rep; j++ {
				in.Segments = append(in.Segments, span)
			}
		}
		if in.IsDMA() && len(in.Segments) == 0 {
			in.Tensor = tensor.ID(f.byte() % 8)
			in.Tile = int(f.byte() % 16)
			in.Version = uint64(f.byte() % 5)
			nSeg := 1 + int(f.byte()%3)
			for s := 0; s < nSeg; s++ {
				in.Segments = append(in.Segments, isa.Segment{
					Addr:  f.u16() * 37, // unaligned, spread over ~2.4MB
					Bytes: 1 + f.u16()%8192,
				})
			}
		}
		if i > 0 && f.byte()%2 == 0 {
			in.Deps = append(in.Deps, int32(int(f.byte())%i))
		}
		tr.Append(in)
	}
	if err := tr.Validate(); err != nil {
		panic(err) // construction above must always be valid
	}
	return &compiler.Program{Trace: tr}
}

// decodeMultiFuzz derives a co-tenant set from fuzz bytes: memory
// geometry, scheme, NPU count, identical-vs-distinct tenants, and the
// programs themselves.
func decodeMultiFuzz(data []byte) ([]*compiler.Program, memprot.Scheme, npu.Config) {
	fr := &fuzzReader{data: data}
	mem := dram.Config{
		FreqHz:               []uint64{1_000_000_000, 2_750_000_000, 3_000_000_000}[fr.byte()%3],
		BandwidthBytesPerSec: []uint64{7_000_000_000, 11_000_000_000, 22_000_000_000}[fr.byte()%3],
		LatencyCycles:        []uint64{0, 10, 100}[fr.byte()%3],
		Channels:             int(fr.byte()%4) + 1,
	}
	scheme := memprot.AllSchemes()[fr.byte()%4]
	count := 2 + int(fr.byte()%2)
	identical := fr.byte()%2 == 0
	progs := make([]*compiler.Program, count)
	progs[0] = buildMultiFuzzProgram(fr)
	for i := 1; i < count; i++ {
		if identical {
			progs[i] = progs[0]
		} else {
			progs[i] = buildMultiFuzzProgram(fr)
		}
	}
	cfg := npu.SmallNPU()
	cfg.Mem = mem
	return progs, scheme, cfg
}

// jointEdgeSeeds are FuzzMultiVsBlock seeds at the joint path's edges;
// TestJointEdgeSeeds checks that each one reaches the edge it names. The
// byte layout is decodeMultiFuzz's: mem geometry (freq, bandwidth,
// latency, channels), scheme, count, identical, then per program an
// instruction count and buildMultiFuzzProgram's per-op fields.
var jointEdgeSeeds = []struct {
	name string
	data []byte
	hit  func(ps *PathStats) bool
}{
	{"k2-identical-instr-end-mid-period", []byte{1, 1, 2, 0, 2, 0, 0, 1,
		6, 1, 0, 1, 0x03, 0x00, 0x00, 0x00,
		6, 2, 1, 1, 0x05, 0x00, 0x10, 0x00, 1,
		3, 4, 0, 1, 0, 0x20, 0x00, 0x1f, 0xff, 1},
		func(ps *PathStats) bool { return ps.JointEnds[memprot.JointInstrEnd] > 0 }},
	{"k2-distinct", []byte{1, 1, 2, 0, 2, 0, 1,
		1, 6, 1, 0, 1, 0x03, 0x00, 0x00, 0x00, 6, 2, 1, 1, 0x05, 0x00, 0x10, 0x00, 1, 3, 4, 0, 1, 0, 0x20, 0x00, 0x1f, 0xff, 1,
		0, 6, 1, 0, 1, 0x04, 0x00, 0x00, 0x40, 6, 2, 1, 1, 0x02, 0x00, 0x20, 0x00, 1},
		func(ps *PathStats) bool { return ps.JointRuns > 0 }},
	{"k3-distinct-horizon", []byte{1, 1, 2, 0, 2, 1, 1,
		1, 6, 1, 0, 1, 0x03, 0x00, 0x00, 0x00, 6, 2, 1, 1, 0x05, 0x00, 0x10, 0x00, 1, 3, 4, 0, 1, 0, 0x20, 0x00, 0x1f, 0xff, 1,
		0, 6, 1, 0, 1, 0x04, 0x00, 0x00, 0x40, 6, 2, 1, 1, 0x02, 0x00, 0x20, 0x00, 1,
		1, 6, 3, 0, 1, 0x02, 0x00, 0x00, 0x80, 5, 0x10, 0x00, 1, 0, 4, 1, 1, 1, 0x30, 0x00, 0x10, 0x00, 1},
		func(ps *PathStats) bool { return ps.JointEnds[memprot.JointAboveHorizon] > 0 }},
	{"two-channels-refuse", []byte{1, 1, 2, 1, 2, 0, 0, 1,
		6, 1, 0, 1, 0x03, 0x00, 0x00, 0x00,
		6, 2, 1, 1, 0x05, 0x00, 0x10, 0x00, 1,
		3, 4, 0, 1, 0, 0x20, 0x00, 0x1f, 0xff, 1},
		func(ps *PathStats) bool { return ps.JointRuns == 0 && ps.Fallbacks[memprot.JointMultiChannel] > 0 }},
	{"baseline-level1-ancestor-miss", []byte{1, 1, 2, 0, 1, 0, 0, 0,
		6, 1, 0, 1, 0x07, 0x00, 0x0f, 0xf8,
		6, 2, 1, 1, 0x07, 0x00, 0x1f, 0xf0, 1},
		func(ps *PathStats) bool {
			return ps.JointEnds[memprot.JointGuard]+ps.Fallbacks[memprot.JointGuard] > 0
		}},
	{"baseline-write-hammer-wraps", []byte{1, 1, 2, 0, 1, 0, 0, 0,
		6, 1, 0, 1, 0x03, 0x00, 0x00, 0x00,
		7, 2, 1, 1, 0x00, 0x40, 0x00, 0x1f, 2, 1},
		func(ps *PathStats) bool {
			return ps.JointEnds[memprot.JointOverflow]+ps.Fallbacks[memprot.JointOverflow] > 0
		}},
	{"k3-identical-overflow-pending", []byte{1, 1, 2, 0, 1, 1, 0, 2,
		6, 1, 0, 1, 0x03, 0x00, 0x00, 0x00,
		7, 2, 1, 1, 0x00, 0x40, 0x00, 0x1f, 1, 1,
		6, 3, 0, 1, 0x02, 0x00, 0x00, 0x10, 1,
		7, 2, 1, 1, 0x00, 0x40, 0x00, 0x1f, 0, 1},
		func(ps *PathStats) bool { return ps.Fallbacks[memprot.JointOverflow] > 0 }},
}

// FuzzMultiVsBlock drives random co-tenant sets, memory geometries, and
// NPU counts through both arbitration loops and requires exact agreement
// on every observable (except the Runs counter). Identical programs give
// lockstep machines — near-simultaneous readiness on every block — while
// distinct programs exercise the streaky regime where horizon clipping
// matters.
func FuzzMultiVsBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 1, 1, 6, 0, 4, 0, 0, 1, 0, 64, 5, 0, 10})
	f.Add([]byte{0xff, 0x80, 0x41, 0x00, 0x13, 0x37, 0xca, 0xfe, 0x00, 0x01, 0x02, 0x03})
	f.Add([]byte{3, 3, 3, 3, 200, 200, 200, 200, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	for _, s := range jointEdgeSeeds {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		progs, scheme, cfg := decodeMultiFuzz(data)
		count, mem := len(progs), cfg.Mem
		identical := count > 1 && progs[1] == progs[0]

		ForceBlockInterleave(true)
		ref, errRef := RunMixed(progs, scheme, cfg)
		ForceBlockInterleave(false)
		arb, errArb := RunMixed(progs, scheme, cfg)
		if (errRef == nil) != (errArb == nil) {
			t.Fatalf("error divergence: block=%v arbitrated=%v", errRef, errArb)
		}
		if errRef != nil {
			return
		}
		if got, want := stripRuns(arb), stripRuns(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("divergence (scheme %v, count %d, identical %v, mem %+v):\n  block:      %+v\n  arbitrated: %+v",
				scheme, count, identical, mem, want, got)
		}
	})
}

// TestJointEdgeSeeds checks that every joint-edge fuzz seed is equivalent
// to the block reference and reaches the edge it is named for, so the
// seeds keep covering those edges as the fast path evolves.
func TestJointEdgeSeeds(t *testing.T) {
	for _, s := range jointEdgeSeeds {
		t.Run(s.name, func(t *testing.T) {
			progs, scheme, cfg := decodeMultiFuzz(s.data)
			diffMulti(t, progs, scheme, cfg)
			var ps PathStats
			if _, err := runMixed(progs, scheme, cfg, nil, &ps); err != nil {
				t.Fatal(err)
			}
			if !s.hit(&ps) {
				t.Fatalf("seed does not reach its edge: %s", ps.String())
			}
		})
	}
}

// --- allocation pin --------------------------------------------------------

// TestMultiNPUNoAllocs pins the steady-state arbitration loop at zero
// allocations per iteration: one scan plus one horizon-bounded serve.
// The baseline scheme is excluded — its minors journal allocates on each
// first-touched counter line (the same waived first-touch allocations as
// the single-NPU pin).
func TestMultiNPUNoAllocs(t *testing.T) {
	cfg := npu.SmallNPU()
	prog := compileFor(t, "df", cfg)
	for _, scheme := range []memprot.Scheme{memprot.Unsecure, memprot.TreeLess, memprot.EncryptOnly} {
		t.Run(scheme.String(), func(t *testing.T) {
			bus := dram.NewBus(cfg.Mem)
			eng, err := memprot.New(scheme, memprot.DefaultConfig(bus))
			if err != nil {
				t.Fatal(err)
			}
			machines := make([]*npu.Machine, 2)
			for i := range machines {
				machines[i] = npu.NewMachineAt(prog, eng, uint64(i)*contextStride, uint64(i)*slotStride)
			}
			last := 0
			step := func() {
				// One arbitrate() iteration: rotating second-min scan, then
				// a horizon-clipped serve of the winner.
				count := len(machines)
				best, bestReady := -1, ^uint64(0)
				horizon := ^uint64(0)
				for off := 1; off <= count; off++ {
					i := (last + off) % count
					ready, ok := machines[i].NextReady()
					if !ok {
						continue
					}
					if ready < bestReady {
						horizon = bestReady
						best, bestReady = i, ready
					} else if ready < horizon {
						horizon = ready
					}
				}
				if best < 0 {
					return
				}
				machines[best].ServeRunUntil(horizon)
				last = best
			}
			for i := 0; i < 50; i++ { // warm caches and the issue windows
				step()
			}
			if avg := testing.AllocsPerRun(100, step); avg != 0 {
				t.Errorf("arbitration iteration allocates %.1f times per step", avg)
			}
		})
		// The same pin through the production step, which offers contended
		// scans to the engine's joint path: the measured steps must take it.
		t.Run("joint/"+scheme.String(), func(t *testing.T) {
			bus := dram.NewBus(cfg.Mem)
			eng, err := memprot.New(scheme, memprot.DefaultConfig(bus))
			if err != nil {
				t.Fatal(err)
			}
			machines := make([]*npu.Machine, 2)
			for i := range machines {
				machines[i] = npu.NewMachineAt(prog, eng, uint64(i)*contextStride, uint64(i)*slotStride)
			}
			var ps PathStats
			a := arbiter{bus: bus, machines: machines, je: eng.(memprot.JointEngine), ps: &ps, backoff: 1}
			for i := 0; i < 200; i++ { // warm caches, windows, and the joint cursor
				a.step()
			}
			before := ps.JointRuns
			if avg := testing.AllocsPerRun(100, func() { a.step() }); avg != 0 {
				t.Errorf("joint arbitration step allocates %.1f times per step", avg)
			}
			if ps.JointRuns == before {
				t.Errorf("no measured step took the joint path (%s)", ps.String())
			}
		})
	}
}

// --- benchmark -------------------------------------------------------------

// BenchmarkMultiNPU measures co-tenant simulation on three paths: the
// block-granular reference ("block"), live horizon-bounded arbitration
// ("arbitrated"), and the production path with the shared joint-run cache
// ("batched" — replays repeated cells from cache, the harness's and the
// serving layer's steady state, mirroring BenchmarkMachineRun's memoized
// leg). BENCH_PR8.json records block/batched ratios.
func BenchmarkMultiNPU(b *testing.B) {
	cfg := npu.LargeNPU()
	m := compileForBench(b, "res", cfg)
	cache := NewRunCache()
	for _, scheme := range memprot.AllSchemes() {
		for count := 2; count <= 3; count++ {
			name := fmt.Sprintf("large/res/%s/x%d", scheme, count)
			b.Run(name+"/block", func(b *testing.B) {
				ForceBlockInterleave(true)
				defer ForceBlockInterleave(false)
				for i := 0; i < b.N; i++ {
					if _, err := Run(m, scheme, cfg, count); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(name+"/arbitrated", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Run(m, scheme, cfg, count); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(name+"/batched", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := RunCached(m, scheme, cfg, count, nil, cache); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func compileForBench(b *testing.B, short string, cfg npu.Config) *compiler.Program {
	b.Helper()
	mdl, err := model.ByShort(short)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := compiler.Compile(mdl, cfg.CompilerConfig())
	if err != nil {
		b.Fatal(err)
	}
	return prog
}
