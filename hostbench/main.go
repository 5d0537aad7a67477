// Command hostbench is the repository benchmark: the host wall time the
// simulator spends regenerating the paper's artifacts and serving them,
// end to end and attributed layer by layer. It reports host time only,
// never simulated speed-ups. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash hostbench/run.sh --workload regen_cold --seed 1 --seconds 20 --trace 0
//
// The last line of stdout is one JSON object: whether every output matched
// its pin, how many operations were attempted and failed, and the metrics.
// --trace 1 runs the same workload with spans recorded around each call
// into the system and prints the per-layer metrics instead of the
// end-to-end ones; the spans are written under .bench_build/trace/.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory for stores and caches
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	mismatch          error // first output that did not match its pin
	endToEnd          map[string]float64
	perLayer          map[string]float64
	spans             *tracer
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config) (outcome, error){
	"regen_cold": regenCold,
	"regen_warm": regenWarm,
	"serve_mix":  serveMix,
}

// metric is one metric's declaration: the name and unit the result line
// carries. BENCHMARK.json lists the same names (pinned by a test).
type metric struct{ name, unit string }

// endToEndMetrics are the gated metrics. Latency percentiles are reported
// per layer instead: on a shared 2-vCPU host their run-to-run spread
// (0.11-0.27 of the median over ten runs) is too wide to gate.
var endToEndMetrics = []metric{
	{"setup_s", "s"},
	{"regen_s", "s"},
	{"op_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = func() []metric {
	m := []metric{
		{"multinpu.busy_s", "s"}, {"multinpu.cells", "count"}, {"multinpu.blocks", "count"},
		{"multinpu.runs", "count"}, {"multinpu.blocks_per_run", "blocks/run"},
		{"multinpu.runcache_hits", "count"}, {"multinpu.runcache_misses", "count"},
		{"npu.busy_s", "s"}, {"npu.cells", "count"}, {"npu.blocks_per_run", "blocks/run"},
		{"npu.memo_hits", "count"}, {"npu.memo_misses", "count"}, {"npu.memo_records", "count"},
		{"npu.memo_flight_hits", "count"}, {"npu.memo_disk_hits", "count"},
		{"npu.memo_evictions", "count"}, {"npu.memo_bytes", "bytes"},
		{"e2e.busy_s", "s"}, {"e2e.cells", "count"},
		{"compiler.busy_s", "s"}, {"compiler.compiles", "count"},
		{"memostore.loads", "count"}, {"memostore.hits", "count"}, {"memostore.saves", "count"},
		{"memostore.corrupt", "count"}, {"memostore.loaded_bytes", "bytes"},
		{"memostore.saved_bytes", "bytes"}, {"memostore.hit_ratio", "ratio"},
		{"memostore.read_s", "s"}, {"memostore.read_cells", "count"},
		{"exp.cells_computed", "count"}, {"exp.cell_cache_hits", "count"},
		{"exp.cell_p50_ms", "ms"}, {"exp.cell_p99_ms", "ms"},
	}
	for _, a := range artifacts {
		m = append(m, metric{"exp.artifact_s." + a.id, "s"})
	}
	for _, k := range []string{"cell", "figure", "sweep"} {
		m = append(m, metric{"serve.requests." + k, "count"},
			metric{"serve.lat_p50_ms." + k, "ms"}, metric{"serve.lat_p99_ms." + k, "ms"},
			metric{"serve.cold_p50_ms." + k, "ms"})
		// One epoch's cold phase holds only 5 figure requests, too few for
		// a tail (see tail); cells and sweeps have 112 and 42.
		if k != "figure" {
			m = append(m, metric{"serve.cold_p99_ms." + k, "ms"})
		}
	}
	return append(m,
		metric{"serve.lat_p50_ms", "ms"}, metric{"serve.lat_p99_ms", "ms"},
		metric{"serve.store_lookups", "count"}, metric{"serve.store_disk_hits", "count"},
		metric{"serve.store_flight_hits", "count"}, metric{"serve.store_computes", "count"},
		metric{"serve.hit_ratio", "ratio"}, metric{"serve.queue_rejected", "count"},
		metric{"trace.overhead_ms", "ms"},
	)
}()

// pins are the correctness digests generated from the seed code.
type pins struct {
	ArtifactSHA string            `json:"artifact_sha256"`
	CellSHA     string            `json:"cell_sha256"`
	Serve       map[string]string `json:"serve"`
}

//go:embed pins.json
var pinsJSON []byte

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]valueWithUnit `json:"metrics"`
}

type valueWithUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: regen_cold, regen_warm, or serve_mix")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	pin := fs.String("pin", "", "recompute the correctness pins and write them to this file")
	workerMode := fs.String("worker", "", "run as a worker process of the benchmark (boot, regen, serve)")
	dir := fs.String("dir", "", "worker: memo store or cache directory")
	traced := fs.Bool("traced", false, "worker: trace every other regeneration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workerMode != "" {
		return runWorker(*workerMode, *dir, *seconds, *traced)
	}

	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	if *pin != "" {
		if err := writePins(*pin, work); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			return 1
		}
		return 0
	}

	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for name := range workloads {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "hostbench: need --workload (%v), --seconds > 0 and --trace 0|1\n", names)
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, work: work}
	out, err := drive(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	if cfg.trace {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := out.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "hostbench: spans written to", path)
	}

	res := result{Correct: out.mismatch == nil && out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]valueWithUnit{}}
	declared, values := endToEndMetrics, out.endToEnd
	if cfg.trace {
		declared, values = perLayerMetrics, out.perLayer
	}
	for _, m := range declared {
		res.Metrics[m.name] = valueWithUnit{values[m.name], m.unit}
		fmt.Fprintf(os.Stderr, "%-32s %14.4f %s\n", m.name, values[m.name], m.unit)
	}
	if out.mismatch != nil {
		fmt.Fprintln(os.Stderr, "hostbench: output does not match its pin:", out.mismatch)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// medianLayers reduces per-sample layer maps to one value per name.
func medianLayers(samples []map[string]float64) map[string]float64 {
	byName := map[string][]float64{}
	for i, s := range samples {
		for name, v := range s {
			if byName[name] == nil {
				byName[name] = make([]float64, len(samples)) // absent = 0
			}
			byName[name][i] = v
		}
	}
	out := map[string]float64{}
	for name, vs := range byName {
		out[name] = median(vs)
	}
	return out
}

// elapsed reports seconds since t.
func elapsed(t time.Time) float64 { return time.Since(t).Seconds() }
