package npu

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"tnpu/internal/canon"
	"tnpu/internal/memprot"
	"tnpu/internal/npu/memostore"
	"tnpu/internal/stats"
)

// encodePathState frames every observable of a run with the fixed-width
// canon and stats AppendAccum encoders the cell store persists run
// results with (DESIGN.md §6g).
func encodePathState(s *pathState) []byte {
	var b []byte
	for _, v := range []uint64{s.Cycles, s.Compute, s.Blocks, s.BusBytes, s.BusBusy, s.BusNow, s.TLBMisses, uint64(len(s.Spans))} {
		b = canon.AppendU64(b, v)
	}
	for _, v := range s.Spans {
		b = canon.AppendU64(b, v)
	}
	b = s.Traffic.AppendAccum(b)
	for _, c := range []*stats.CacheStats{&s.Counter, &s.Hash, &s.MAC} {
		b = c.AppendAccum(b)
	}
	return b
}

// decodePathState inverts encodePathState, refusing a body of the wrong
// length.
func decodePathState(b []byte) (pathState, bool) {
	var s pathState
	accum := len((&stats.Traffic{}).AppendAccum(nil)) + 3*len((&stats.CacheStats{}).AppendAccum(nil))
	if len(b) < 8*8 {
		return s, false
	}
	fields := []*uint64{&s.Cycles, &s.Compute, &s.Blocks, &s.BusBytes, &s.BusBusy, &s.BusNow, &s.TLBMisses}
	for _, f := range fields {
		*f, b = canon.U64(b)
	}
	var n uint64
	n, b = canon.U64(b)
	if uint64(len(b)) != 8*n+uint64(accum) {
		return s, false
	}
	s.Spans = make([]uint64, n)
	for i := range s.Spans {
		s.Spans[i], b = canon.U64(b)
	}
	b = s.Traffic.AddAccum(b)
	for _, c := range []*stats.CacheStats{&s.Counter, &s.Hash, &s.MAC} {
		b = c.AddAccum(b)
	}
	return s, len(b) == 0
}

// memoKey names one whole-run cell the way the cell store does: a hex
// SHA-256 digest of everything that determines the run.
func memoKey(cfg Config, short string, scheme memprot.Scheme) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s/%s/%s", cfg.Name, short, scheme)))
	return hex.EncodeToString(sum[:])
}

// TestMemoizedEquivalence pins the guarantee the whole-run memo tier (the
// cell store) rests on, for the full workload matrix: a run keyed only by
// (model, NPU class, scheme) is fully determined by that key — an
// independent compile yields the identical program — and a recording of
// Machine.Run saved to a memostore entry, then loaded by a fresh store
// over the same directory (a restarted process), is bit-identical to the
// per-block reference on every observable. The replay pass must be served
// entirely from the store.
func TestMemoizedEquivalence(t *testing.T) {
	for _, cfg := range []Config{SmallNPU(), LargeNPU()} {
		for _, short := range equivalenceModels(t) {
			cfg, short := cfg, short
			t.Run(fmt.Sprintf("%s/%s", cfg.Name, short), func(t *testing.T) {
				t.Parallel()
				prog := compileFor(t, short, cfg)
				if again := compileFor(t, short, cfg); !reflect.DeepEqual(prog, again) {
					t.Fatal("an independent compile differs: a whole-run memo keyed on model and config would serve another program's run")
				}
				dir := t.TempDir()
				rec, err := memostore.New(dir)
				if err != nil {
					t.Fatal(err)
				}
				ref := map[memprot.Scheme]pathState{}
				for _, scheme := range memprot.AllSchemes() {
					ref[scheme] = runPath(t, prog, scheme, cfg, nil, false)
					got := runPath(t, prog, scheme, cfg, nil, true)
					if !reflect.DeepEqual(ref[scheme], got) {
						t.Errorf("%v: recorded run diverges from per-block reference:\n  per-block: %+v\n  recording: %+v", scheme, ref[scheme], got)
					}
					if !rec.Save(memoKey(cfg, short, scheme), encodePathState(&got)) {
						t.Fatalf("%v: saving the recorded run failed", scheme)
					}
				}
				rep, err := memostore.New(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, scheme := range memprot.AllSchemes() {
					body, ok := rep.Load(memoKey(cfg, short, scheme))
					if !ok {
						t.Fatalf("%v: replay missed the recorded entry", scheme)
					}
					got, ok := decodePathState(body)
					if !ok {
						t.Fatalf("%v: recorded entry does not decode", scheme)
					}
					if !reflect.DeepEqual(ref[scheme], got) {
						t.Errorf("%v: replayed run diverges from per-block reference:\n  per-block: %+v\n  replay:    %+v", scheme, ref[scheme], got)
					}
				}
				if st, n := rep.Stats(), uint64(len(memprot.AllSchemes())); st.Hits != n || st.Loads != n {
					t.Errorf("replay pass: %d/%d loads hit, want %d/%d", st.Hits, st.Loads, n, n)
				}
			})
		}
	}
}
