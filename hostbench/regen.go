package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"tnpu/internal/canon"
	"tnpu/internal/exp"
	"tnpu/internal/memprot"
)

// artifact is one generator call of the artifact set tnpu-bench prints by
// default. Each writes exactly the text tnpu-bench writes for it, so the
// digest of a regeneration pins tnpu-bench's default stdout.
type artifact struct {
	id  string
	gen func(r *exp.Runner, w io.Writer) error
}

func figure(gen func(*exp.Runner) (exp.Figure, error)) func(*exp.Runner, io.Writer) error {
	return func(r *exp.Runner, w io.Writer) error {
		f, err := gen(r)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, f.String())
		return nil
	}
}

var artifacts = []artifact{
	{"table3", func(r *exp.Runner, w io.Writer) error { fmt.Fprintln(w, r.Table3()); return nil }},
	{"fig4", figure((*exp.Runner).Figure4)},
	{"fig5", figure((*exp.Runner).Figure5)},
	{"fig14", figure((*exp.Runner).Figure14)},
	{"fig15", figure((*exp.Runner).Figure15)},
	{"fig16", figure((*exp.Runner).Figure16)},
	{"fig17", figure((*exp.Runner).Figure17)},
	{"storage", func(r *exp.Runner, w io.Writer) error {
		per, avg, max, err := r.VersionStorage(exp.Small)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Sec IV-D: version-table storage (Small NPU): avg=%.0fB max=%dB (paper: ~1.3KB avg, 7.5KB max)\n", avg, max)
		for _, short := range r.Models {
			fmt.Fprintf(w, "  %-5s %dB\n", short, per[short])
		}
		fmt.Fprintln(w)
		return nil
	}},
	{"sweeps", func(r *exp.Runner, w io.Writer) error {
		for _, gen := range []func(string) (exp.Sweep, error){r.BandwidthSweep, r.SPMSweep, r.LatencySweep} {
			sw, err := gen("sent")
			if err != nil {
				return err
			}
			fmt.Fprintln(w, sw.String())
		}
		return nil
	}},
	{"hwcost", func(r *exp.Runner, w io.Writer) error {
		s := r.HardwareCost()
		fmt.Fprintln(w, "Sec V-E hardware overhead:", s.String())
		for _, c := range s.PerComponent {
			fmt.Fprintf(w, "  %dx %-28s %.5f mm^2  %5.2f mW  (%s)\n",
				c.Count, c.Name, c.TotalArea(), c.TotalPower(), c.SizeNote)
		}
		fmt.Fprintln(w)
		return nil
	}},
	{"headline", func(r *exp.Runner, w io.Writer) error {
		for _, class := range exp.Classes() {
			i1, err := r.Improvement(class, 1)
			if err != nil {
				return err
			}
			i3, err := r.Improvement(class, 3)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "Headline (%s NPU): TNPU improves the tree-based baseline by %.1f%% (1 NPU), %.1f%% (3 NPUs)\n",
				class, 100*i1, 100*i3)
		}
		fmt.Fprintln(w, "Paper reference: 10.0%/13.3% (small), 7.5%/8.7% (large)")
		return nil
	}},
}

// regenSample is one full regeneration, as a worker process reports it.
type regenSample struct {
	Seconds     float64            `json:"seconds"`
	Setup       float64            `json:"setup_s"` // newRunner's share of Seconds
	Traced      bool               `json:"traced"`
	ArtifactSHA string             `json:"artifact_sha256"`
	CellSHA     string             `json:"cell_sha256"`
	CellMS      []float64          `json:"cell_ms"`
	Layers      map[string]float64 `json:"layers"`
	Spans       []span             `json:"spans,omitempty"`
}

// newRunner sets up a Runner as a regeneration does: Workers = nproc,
// with the memo store in dir attached. It returns the seconds that took.
func newRunner(dir string) (*exp.Runner, float64, error) {
	// The store directory is made before the clock starts: a cold set-up
	// still finds it empty, and only the mkdir is left out. On a 2-vCPU
	// shared VM one mkdir took anywhere from 0.1 to 0.9 ms, swinging with
	// the filesystem's state for tens of seconds at a time, which is more
	// than the rest of the set-up takes.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	r := exp.NewRunner()
	r.Workers = nproc
	err := r.SetMemoDir(dir)
	return r, time.Since(start).Seconds(), err
}

// regenerate builds the whole artifact set in a fresh Runner over the
// memo store in dir. The timed region is everything a cold tnpu-bench
// process does after start-up: creating the Runner, attaching the store,
// and every generator. Digests and layer attribution are taken after it.
func regenerate(dir string, tr *tracer) (regenSample, error) {
	start := time.Now()
	r, setup, err := newRunner(dir)
	if err != nil {
		return regenSample{}, err
	}
	var out strings.Builder
	for _, a := range artifacts {
		id := tr.open("exp."+a.id, 0)
		err := a.gen(r, &out)
		tr.close(id)
		if err != nil {
			return regenSample{}, fmt.Errorf("%s: %w", a.id, err)
		}
	}
	s := regenSample{Seconds: time.Since(start).Seconds(), Setup: setup, Traced: tr != nil, Spans: tr.snapshot()}
	sum := sha256.Sum256([]byte(out.String()))
	s.ArtifactSHA = hex.EncodeToString(sum[:])
	for _, c := range r.Log().Cells() {
		s.CellMS = append(s.CellMS, float64(c.Wall)/1e6)
	}
	if s.Layers, err = attribute(r); err != nil {
		return regenSample{}, err
	}
	if s.CellSHA, err = cellDigest(r); err != nil {
		return regenSample{}, err
	}
	return s, nil
}

// runCell is a simulate cell named by its RunLog label
// ("<model>/<class>/<scheme> x<count>").
type runCell struct {
	short  string
	class  exp.Class
	scheme memprot.Scheme
	count  int
}

// parseRunLabel recognizes Runner.Run's RunLog labels. Sweep points
// ("<model>/sweep/<scheme>") and mixed tuples do not parse.
func parseRunLabel(label string) (runCell, bool) {
	head, cnt, ok := strings.Cut(label, " x")
	if !ok {
		return runCell{}, false
	}
	parts := strings.Split(head, "/")
	n, err := strconv.Atoi(cnt)
	if len(parts) != 3 || err != nil {
		return runCell{}, false
	}
	var class exp.Class
	switch parts[1] {
	case "small":
		class = exp.Small
	case "large":
		class = exp.Large
	default:
		return runCell{}, false
	}
	schemes, err := exp.ParseSchemes(parts[2])
	if err != nil || len(schemes) != 1 {
		return runCell{}, false
	}
	return runCell{parts[0], class, schemes[0], n}, true
}

// parseE2ELabel recognizes Runner.EndToEnd's labels
// ("<model>/<class>/<scheme> e2e").
func parseE2ELabel(label string) (runCell, bool) {
	head, ok := strings.CutSuffix(label, " e2e")
	if !ok {
		return runCell{}, false
	}
	return parseRunLabel(head + " x0")
}

// cellDigest hashes every Run and EndToEnd cell the Runner computed, in
// label order: cycles, per-NPU cycles and served work, traffic by kind,
// and the metadata-cache counters. The cells are read back through the
// Runner's cache, so this simulates nothing. Sweep points are covered by
// the artifact digest (their cycles are only visible as sweep ratios).
func cellDigest(r *exp.Runner) (string, error) {
	var labels []string
	for _, c := range r.Log().Cells() {
		if c.Kind == "simulate" || c.Kind == "e2e" {
			labels = append(labels, c.Label)
		}
	}
	sort.Strings(labels)
	h := sha256.New()
	var buf []byte
	for _, label := range labels {
		buf = append(buf[:0], label...)
		buf = append(buf, 0)
		if c, ok := parseRunLabel(label); ok {
			res, err := r.Run(c.short, c.class, c.scheme, c.count)
			if err != nil {
				return "", err
			}
			buf = canon.AppendU64(buf, res.Cycles)
			for _, n := range res.NPUs {
				for _, v := range []uint64{n.Cycles, n.Blocks, n.ReadBytes, n.WriteBytes, n.Runs} {
					buf = canon.AppendU64(buf, v)
				}
			}
			buf = res.Traffic.AppendAccum(buf)
			buf = res.Counter.AppendAccum(buf)
			buf = res.Hash.AppendAccum(buf)
			buf = res.MAC.AppendAccum(buf)
		} else if c, ok := parseE2ELabel(label); ok {
			res, err := r.EndToEnd(c.short, c.class, c.scheme)
			if err != nil {
				return "", err
			}
			for _, v := range []uint64{res.InitCycles, res.RunCycles, res.OutputCycles, res.Total} {
				buf = canon.AppendU64(buf, v)
			}
			buf = res.Traffic.AppendAccum(buf)
		} else if !strings.Contains(label, "/sweep/") {
			return "", fmt.Errorf("unrecognized cell label %q", label)
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// attribute splits the Runner's computed cells across the simulator's
// layers by RunLog kind and label, and collects every layer counter the
// Runner exposes. Call it after the workload and before anything else
// asks the Runner for cells: it reads the cell-cache counters first, then
// reads result attribution back through cache hits.
//
// A cell served from the persistent store simulated nothing. When every
// store lookup hit, the cells' wall time is store reads and is reported
// as memostore.read_s; otherwise it is charged to the simulating layer.
// (The workloads here either start from an empty store or a full one, so
// the split is exact for them.)
func attribute(r *exp.Runner) (map[string]float64, error) {
	m := map[string]float64{}
	log := r.Log()
	m["exp.cells_computed"] = float64(log.CellsDone())
	m["exp.cell_cache_hits"] = float64(log.CacheHits())

	st := r.CellStoreStats()
	m["memostore.loads"] = float64(st.Loads)
	m["memostore.hits"] = float64(st.Hits)
	m["memostore.saves"] = float64(st.Saves)
	m["memostore.corrupt"] = float64(st.Corrupt)
	m["memostore.loaded_bytes"] = float64(st.LoadedBytes)
	m["memostore.saved_bytes"] = float64(st.SavedBytes)
	if st.Loads > 0 {
		m["memostore.hit_ratio"] = float64(st.Hits) / float64(st.Loads)
	}
	fromStore := st.Loads > 0 && st.Hits == st.Loads

	lm := r.LayerMemoStats()
	m["npu.memo_hits"] = float64(lm.Hits)
	m["npu.memo_misses"] = float64(lm.Misses)
	m["npu.memo_flight_hits"] = float64(lm.FlightHits)
	m["npu.memo_disk_hits"] = float64(lm.DiskHits)
	m["npu.memo_records"] = float64(lm.Records)
	m["npu.memo_evictions"] = float64(lm.Evictions)
	m["npu.memo_bytes"] = float64(lm.Bytes)
	hits, misses := r.MultiCacheStats()
	m["multinpu.runcache_hits"] = float64(hits)
	m["multinpu.runcache_misses"] = float64(misses)

	var blocks, runs [2]float64 // [0] single-NPU cells, [1] multi-NPU cells
	for _, c := range log.Cells() {
		sec := c.Wall.Seconds()
		if c.Kind == "compile" {
			m["compiler.busy_s"] += sec
			m["compiler.compiles"]++
			continue
		}
		if fromStore {
			m["memostore.read_s"] += sec
			m["memostore.read_cells"]++
			continue
		}
		layer := c.Kind // "e2e"
		if c.Kind == "simulate" {
			layer = "npu"
			if strings.HasPrefix(c.Label, "mixed[") {
				layer = "multinpu"
			} else if rc, ok := parseRunLabel(c.Label); ok {
				res, err := r.Run(rc.short, rc.class, rc.scheme, rc.count)
				if err != nil {
					return nil, err
				}
				i := 0
				if rc.count > 1 {
					layer, i = "multinpu", 1
				}
				for _, n := range res.NPUs {
					blocks[i] += float64(n.Blocks)
					runs[i] += float64(n.Runs)
				}
			}
		}
		m[layer+".busy_s"] += sec
		m[layer+".cells"]++
	}
	m["multinpu.blocks"], m["multinpu.runs"] = blocks[1], runs[1]
	if runs[0] > 0 {
		m["npu.blocks_per_run"] = blocks[0] / runs[0]
	}
	if runs[1] > 0 {
		m["multinpu.blocks_per_run"] = blocks[1] / runs[1]
	}
	return m, nil
}
