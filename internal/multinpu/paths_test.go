package multinpu

import (
	"fmt"
	"testing"

	"tnpu/internal/compiler"
	"tnpu/internal/memprot"
	"tnpu/internal/npu"
)

// seedRuns holds NPUStats.Runs for the TestMultiNPUDifferential set, as
// the horizon-bounded arbiter reported them before the joint path
// existed. The differential strips Runs, but persisted cell results carry
// it, so the joint path must leave it unchanged: under joint admission
// every ready time is at or below the bus horizon, where the burst bound
// always refuses.
var seedRuns = []struct {
	cfg, model string
	scheme     memprot.Scheme
	count      int
	runs       []uint64
}{
	{"small", "df", memprot.Unsecure, 2, []uint64{219, 186}},
	{"small", "df", memprot.Unsecure, 3, []uint64{85, 123, 131}},
	{"small", "df", memprot.Baseline, 2, []uint64{148, 103}},
	{"small", "df", memprot.Baseline, 3, []uint64{50, 34, 35}},
	{"small", "df", memprot.TreeLess, 2, []uint64{162, 150}},
	{"small", "df", memprot.TreeLess, 3, []uint64{93, 99, 72}},
	{"small", "df", memprot.EncryptOnly, 2, []uint64{220, 186}},
	{"small", "df", memprot.EncryptOnly, 3, []uint64{105, 125, 130}},
	{"small", "res", memprot.Unsecure, 2, []uint64{1528, 223}},
	{"small", "res", memprot.Unsecure, 3, []uint64{8, 39, 4}},
	{"small", "res", memprot.Baseline, 2, []uint64{113, 0}},
	{"small", "res", memprot.Baseline, 3, []uint64{6, 2, 1}},
	{"small", "res", memprot.TreeLess, 2, []uint64{407, 606}},
	{"small", "res", memprot.TreeLess, 3, []uint64{5, 5, 3}},
	{"small", "res", memprot.EncryptOnly, 2, []uint64{1466, 86}},
	{"small", "res", memprot.EncryptOnly, 3, []uint64{7, 5, 4}},
	{"large", "df", memprot.Unsecure, 2, []uint64{135, 95}},
	{"large", "df", memprot.Unsecure, 3, []uint64{85, 95, 60}},
	{"large", "df", memprot.Baseline, 2, []uint64{76, 118}},
	{"large", "df", memprot.Baseline, 3, []uint64{82, 25, 84}},
	{"large", "df", memprot.TreeLess, 2, []uint64{122, 87}},
	{"large", "df", memprot.TreeLess, 3, []uint64{77, 87, 69}},
	{"large", "df", memprot.EncryptOnly, 2, []uint64{135, 95}},
	{"large", "df", memprot.EncryptOnly, 3, []uint64{111, 95, 60}},
	{"large", "res", memprot.Unsecure, 2, []uint64{265, 234}},
	{"large", "res", memprot.Unsecure, 3, []uint64{107, 85, 57}},
	{"large", "res", memprot.Baseline, 2, []uint64{139, 180}},
	{"large", "res", memprot.Baseline, 3, []uint64{60, 53, 74}},
	{"large", "res", memprot.TreeLess, 2, []uint64{126, 122}},
	{"large", "res", memprot.TreeLess, 3, []uint64{32, 48, 30}},
	{"large", "res", memprot.EncryptOnly, 2, []uint64{264, 237}},
	{"large", "res", memprot.EncryptOnly, 3, []uint64{109, 86, 55}},
}

// TestRunsMatchSeedRecording pins per-NPU Runs to the pre-joint-path
// recording. -short keeps the small/df column, as the differential does.
func TestRunsMatchSeedRecording(t *testing.T) {
	progs := map[string]*compiler.Program{}
	for _, c := range seedRuns {
		if testing.Short() && (c.cfg != "small" || c.model != "df") {
			continue
		}
		cfg := npu.SmallNPU()
		if c.cfg == "large" {
			cfg = npu.LargeNPU()
		}
		key := c.cfg + "/" + c.model
		if progs[key] == nil {
			progs[key] = compileFor(t, c.model, cfg)
		}
		tenants := make([]*compiler.Program, c.count)
		for i := range tenants {
			tenants[i] = progs[key]
		}
		r, err := RunMixed(tenants, c.scheme, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range r.NPUs {
			if n.Runs != c.runs[i] {
				t.Errorf("%s/%s/%s/x%d npu%d: Runs = %d, recorded %d", c.cfg, c.model, c.scheme, c.count, i, n.Runs, c.runs[i])
			}
		}
	}
}

// pinnedPaths holds the exact execution-path counters of small co-tenant
// cells: per-NPU blocks by path (joint, burst, block), then the joint run
// ends and fallback reasons. A fast-path regression shows up here as a
// counter diff rather than as wall-time noise; a deliberate change to
// path selection updates the table.
var pinnedPaths = []struct {
	model  string
	scheme memprot.Scheme
	count  int
	want   string
}{
	{"df", memprot.Unsecure, 2, "[{49751 7289 11615} {49659 5047 13949}] blocks joint 99410, burst 12336, block 25564; joint runs 129 (instr-end 129); fallbacks (not-saturated 1039)"},
	{"df", memprot.Unsecure, 3, "[{54792 2075 11788} {53384 3572 11699} {54443 3449 10763}] blocks joint 162619, burst 9096, block 34250; joint runs 481 (instr-end 327, above-horizon 154); fallbacks (not-saturated 1390, above-horizon 703)"},
	{"df", memprot.Baseline, 2, "[{50727 3622 14306} {50778 2542 15335}] blocks joint 101505, burst 6164, block 29641; joint runs 162 (instr-end 146, engine-guard 16); fallbacks (not-saturated 1036, gap 9, engine-guard 32)"},
	{"df", memprot.Baseline, 3, "[{56962 945 10748} {55286 629 12740} {56686 546 11423}] blocks joint 168934, burst 2120, block 34911; joint runs 665 (instr-end 430, above-horizon 205, engine-guard 30); fallbacks (not-saturated 1381, above-horizon 833, gap 12, engine-guard 60)"},
	{"df", memprot.TreeLess, 2, "[{48413 5168 15074} {48098 4671 15886}] blocks joint 96511, burst 9839, block 30960; joint runs 184 (instr-end 184); fallbacks (not-saturated 1139, gap 2)"},
	{"df", memprot.TreeLess, 3, "[{54117 2337 12201} {52934 2083 13638} {53677 1656 13322}] blocks joint 160728, burst 6076, block 39161; joint runs 543 (instr-end 382, above-horizon 161); fallbacks (not-saturated 1751, above-horizon 885, gap 377)"},
	{"df", memprot.EncryptOnly, 2, "[{49737 7294 11624} {49658 5051 13946}] blocks joint 99395, burst 12345, block 25570; joint runs 129 (instr-end 129); fallbacks (not-saturated 1033)"},
	{"df", memprot.EncryptOnly, 3, "[{54748 2836 11071} {53268 3629 11758} {54454 3292 10909}] blocks joint 162470, burst 9757, block 33738; joint runs 480 (instr-end 328, above-horizon 152); fallbacks (not-saturated 1385, above-horizon 690)"},
	{"res", memprot.Unsecure, 2, "[{1680020 26634 82840} {1680436 14897 94161}] blocks joint 3360456, burst 41531, block 177001; joint runs 847 (instr-end 847); fallbacks (not-saturated 3444)"},
	{"res", memprot.Unsecure, 3, "[{1773195 335 15964} {1767171 1407 20916} {1772366 384 16744}] blocks joint 5312732, burst 2126, block 53624; joint runs 2464 (instr-end 1296, above-horizon 1168); fallbacks (not-saturated 573, above-horizon 5249)"},
	{"res", memprot.Baseline, 2, "[{1705933 6602 76959} {1707026 0 82468}] blocks joint 3412959, burst 6602, block 159427; joint runs 1240 (instr-end 748, engine-guard 492); fallbacks (not-saturated 2874, gap 75, engine-guard 984)"},
	{"res", memprot.Baseline, 3, "[{1768883 97 20514} {1760406 108 28980} {1768056 16 21422}] blocks joint 5297345, burst 221, block 70916; joint runs 3375 (instr-end 1303, above-horizon 1203, engine-guard 869); fallbacks (not-saturated 398, above-horizon 4858, gap 88, engine-guard 1741)"},
	{"res", memprot.TreeLess, 2, "[{1686605 12473 90416} {1687054 8825 93615}] blocks joint 3373659, burst 21298, block 184031; joint runs 910 (instr-end 910); fallbacks (not-saturated 2979, gap 52)"},
	{"res", memprot.TreeLess, 3, "[{1740176 497 48821} {1738689 491 50314} {1738597 160 50737}] blocks joint 5217462, burst 1148, block 149872; joint runs 2412 (instr-end 1390, above-horizon 1022); fallbacks (not-saturated 190, above-horizon 4549, gap 7347)"},
	{"res", memprot.EncryptOnly, 2, "[{1679822 25648 84024} {1680260 13281 95953}] blocks joint 3360082, burst 38929, block 179977; joint runs 845 (instr-end 845); fallbacks (not-saturated 3401)"},
	{"res", memprot.EncryptOnly, 3, "[{1773361 173 15960} {1769217 863 19414} {1772515 400 16579}] blocks joint 5315093, burst 1436, block 51953; joint runs 2453 (instr-end 1295, above-horizon 1158); fallbacks (not-saturated 570, above-horizon 5206)"},
}

// TestPathCounts pins the path counters on small df/res cells (-short
// keeps df), and checks that every NPU's blocks split exactly by path.
func TestPathCounts(t *testing.T) {
	cfg := npu.SmallNPU()
	progs := map[string]*compiler.Program{}
	for _, c := range pinnedPaths {
		if testing.Short() && c.model != "df" {
			continue
		}
		if progs[c.model] == nil {
			progs[c.model] = compileFor(t, c.model, cfg)
		}
		tenants := make([]*compiler.Program, c.count)
		for i := range tenants {
			tenants[i] = progs[c.model]
		}
		var ps PathStats
		r, err := runMixed(tenants, c.scheme, cfg, nil, &ps)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range ps.NPUs {
			if sum := n.Joint + n.Burst + n.Block; sum != r.NPUs[i].Blocks {
				t.Errorf("%s/%s/x%d npu%d: paths sum to %d blocks, served %d", c.model, c.scheme, c.count, i, sum, r.NPUs[i].Blocks)
			}
		}
		if got := fmt.Sprintf("%v %s", ps.NPUs, ps.String()); got != c.want {
			t.Errorf("%s/%s/x%d path counters:\n  got  %s\n  want %s", c.model, c.scheme, c.count, got, c.want)
		}
	}
}
