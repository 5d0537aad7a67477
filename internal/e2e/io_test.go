package e2e

import (
	"fmt"
	"reflect"
	"testing"

	"tnpu/internal/dram"
	"tnpu/internal/memprot"
	"tnpu/internal/npu"
)

// TestTensorIORunPathMatchesBlockLoop pins the enclave tensor I/O run path
// to the per-block reference loop (selected by npu.ForcePerBlock): every
// scheme on df and res, Small and Large, field for field on Run and
// RunBatch — plus a bus fast enough that a block costs under one cycle,
// where the run path must stand aside.
func TestTensorIORunPathMatchesBlockLoop(t *testing.T) {
	subCycle := npu.SmallNPU()
	subCycle.Name = "small-subcycle"
	subCycle.Mem.BandwidthBytesPerSec = 4 * subCycle.Mem.FreqHz * dram.BlockBytes / 3 // 0.75 cycles per block
	if bus := dram.NewBus(subCycle.Mem); bus.BlockCyclesFloor() != 0 {
		t.Fatalf("sub-cycle config costs %d cycles per block", bus.BlockCyclesFloor())
	}
	cases := []struct {
		cfg   npu.Config
		model string
	}{
		{npu.SmallNPU(), "df"}, {npu.SmallNPU(), "res"},
		{npu.LargeNPU(), "df"}, {npu.LargeNPU(), "res"},
		{subCycle, "df"},
	}
	for _, c := range cases {
		prog := compileFor(t, c.model, c.cfg)
		for _, scheme := range memprot.AllSchemes() {
			t.Run(fmt.Sprintf("%s/%s/%s", c.cfg.Name, c.model, scheme), func(t *testing.T) {
				npu.ForcePerBlock(true)
				refRun, errA := Run(prog, scheme, c.cfg)
				refBatch, errB := RunBatch(prog, scheme, c.cfg, 2)
				npu.ForcePerBlock(false)
				run, errC := Run(prog, scheme, c.cfg)
				batch, errD := RunBatch(prog, scheme, c.cfg, 2)
				for _, err := range []error{errA, errB, errC, errD} {
					if err != nil {
						t.Fatal(err)
					}
				}
				if !reflect.DeepEqual(run, refRun) {
					t.Errorf("Run diverges from the block loop:\n  block: %+v\n  run:   %+v", refRun, run)
				}
				if !reflect.DeepEqual(batch, refBatch) {
					t.Errorf("RunBatch diverges from the block loop:\n  block: %+v\n  run:   %+v", refBatch, batch)
				}
			})
		}
	}
}

// TestTensorIOPathSelection checks which configurations take the run
// path: every stock engine on a bus whose blocks cost at least one cycle,
// none under npu.ForcePerBlock or on a sub-cycle bus.
func TestTensorIOPathSelection(t *testing.T) {
	fast := npu.SmallNPU().Mem
	fast.BandwidthBytesPerSec = 2 * fast.FreqHz * dram.BlockBytes
	for _, c := range []struct {
		name   string
		mem    dram.Config
		force  bool
		wantRn bool
	}{
		{"small", npu.SmallNPU().Mem, false, true},
		{"large", npu.LargeNPU().Mem, false, true},
		{"forced-per-block", npu.SmallNPU().Mem, true, false},
		{"sub-cycle", fast, false, false},
	} {
		for _, scheme := range memprot.AllSchemes() {
			bus := dram.NewBus(c.mem)
			eng, err := memprot.New(scheme, memprot.DefaultConfig(bus))
			if err != nil {
				t.Fatal(err)
			}
			npu.ForcePerBlock(c.force)
			tio := newTensorIO(eng, bus)
			npu.ForcePerBlock(false)
			if got := tio.run != nil; got != c.wantRn {
				t.Errorf("%s/%s: run path = %v, want %v", c.name, scheme, got, c.wantRn)
			}
		}
	}
}
