package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Workload sizes. They are fixed here, not by flags, so that two commits
// measured with the same seed do the same work.
const (
	// setupBoots is how many extra worker processes regen_cold and
	// serve_mix boot, and shut down at once, to time their set-up. A
	// set-up takes under a millisecond, so one sample per run would be
	// mostly noise.
	setupBoots = 25
	// warmFills is how many stores regen_warm fills to time its set-up.
	warmFills = 2
	// mixRequests is how many Zipf-drawn requests one serve_mix epoch
	// sends after its cold phase: about three seconds of disk-store hits,
	// and 400 samples beyond each epoch's p99.
	mixRequests = 40000
	// mixSegments is how many equal segments the mix phase is sent in.
	// op_per_s is the median rate over all segments of a run, so that a
	// slow second on a shared host moves one segment, not a whole epoch.
	mixSegments = 8
)

// nproc is every workload's parallelism: Runner workers, server workers
// and closed-loop connections alike.
var nproc = runtime.NumCPU()

// regenCold regenerates the artifact set in fresh processes over empty
// stores until the run's seconds are used (at least once).
func regenCold(cfg config) (outcome, error) {
	p, err := loadPins()
	if err != nil {
		return outcome{}, err
	}
	out := outcome{spans: traceFor(cfg)}
	setups, err := bootProbes(cfg, "boot")
	if err != nil {
		return out, err
	}

	var samples []regenSample
	var rss []float64
	start := time.Now()
	for i := 0; i == 0 || elapsed(start) < cfg.seconds; i++ {
		dir := filepath.Join(cfg.work, "cold-"+strconv.Itoa(i))
		s, peak, err := regenWorker(out.spans, dir, 0, cfg.trace && i%2 == 0)
		if err != nil {
			return out, err
		}
		samples = append(samples, s...)
		setups = append(setups, s[0].Setup)
		rss = append(rss, peak)
		fmt.Fprintf(os.Stderr, "regeneration %d: %.3fs, peak RSS %.0f MB\n", i, s[0].Seconds, peak)
		if err := os.RemoveAll(dir); err != nil {
			return out, err
		}
	}
	out.check(samples, p)
	out.endToEnd = regenMetrics(samples, median(setups), median(rss))
	out.perLayer = regenLayers(samples)
	return out, nil
}

// regenWarm fills stores with cold regenerations (set-up), then
// regenerates repeatedly in one fresh process, each time in a fresh Runner
// over one of the filled stores.
func regenWarm(cfg config) (outcome, error) {
	p, err := loadPins()
	if err != nil {
		return outcome{}, err
	}
	out := outcome{spans: traceFor(cfg)}
	var fills []float64
	var dir string
	for i := 0; i < warmFills; i++ {
		dir = filepath.Join(cfg.work, "warm-"+strconv.Itoa(i))
		id := out.spans.open("setup.fill", 0)
		t0 := time.Now()
		s, _, err := regenWorker(nil, dir, 0, false)
		fills = append(fills, elapsed(t0))
		out.spans.close(id)
		if err != nil {
			return out, err
		}
		out.check(s, p) // the fills are cold regenerations: pin them too
	}

	samples, peak, err := regenWorker(out.spans, dir, cfg.seconds, cfg.trace)
	if err != nil {
		return out, err
	}
	out.check(samples, p)
	out.endToEnd = regenMetrics(samples, median(fills), peak)
	out.perLayer = regenLayers(samples)
	return out, nil
}

// regenWorker runs one regen worker process over dir and returns its
// regenerations and its peak RSS.
func regenWorker(tr *tracer, dir string, seconds float64, traced bool) ([]regenSample, float64, error) {
	id := tr.open("worker.regen", 0)
	defer tr.close(id)
	w, err := startWorker("-worker", "regen", "-dir", dir,
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64),
		"-traced="+strconv.FormatBool(traced))
	if err != nil {
		return nil, 0, err
	}
	var rep regenReport
	peak, err := w.finish(&rep)
	if err != nil {
		return nil, 0, err
	}
	for _, s := range rep.Samples {
		tr.adopt(s.Spans, id)
	}
	return rep.Samples, peak, nil
}

// check counts each regeneration's artifacts as operations, failing all of
// a regeneration's artifacts when either digest misses its pin.
func (o *outcome) check(samples []regenSample, p pins) {
	for _, s := range samples {
		o.attempted += len(artifacts)
		var err error
		switch {
		case s.ArtifactSHA != p.ArtifactSHA:
			err = fmt.Errorf("artifact text digest %s, pinned %s", s.ArtifactSHA, p.ArtifactSHA)
		case s.CellSHA != p.CellSHA:
			err = fmt.Errorf("cell statistics digest %s, pinned %s", s.CellSHA, p.CellSHA)
		}
		if err != nil {
			o.failed += len(artifacts)
			if o.mismatch == nil {
				o.mismatch = err
			}
		}
	}
}

// regenMetrics derives the end-to-end metrics of a regen workload. Its
// operations are the Runner's computed cells: op_per_s is the median over
// regenerations of cells computed per second.
func regenMetrics(samples []regenSample, setup, rss float64) map[string]float64 {
	var secs, rates []float64
	for _, s := range samples {
		if !s.Traced {
			secs = append(secs, s.Seconds)
		}
		rates = append(rates, float64(len(s.CellMS))/s.Seconds)
	}
	if len(secs) == 0 { // a traced run with a single regeneration
		secs = []float64{samples[0].Seconds}
	}
	return map[string]float64{
		"setup_s":     setup,
		"regen_s":     median(secs),
		"op_per_s":    median(rates),
		"peak_rss_mb": rss,
	}
}

// regenLayers reduces per-regeneration layer attribution to medians, adds
// per-artifact times from traced regenerations, and the tracing overhead:
// median traced minus median untraced regeneration.
func regenLayers(samples []regenSample) map[string]float64 {
	var layers []map[string]float64
	var traced, untraced, cells []float64
	artifactS := map[string][]float64{}
	for _, s := range samples {
		layers = append(layers, s.Layers)
		cells = append(cells, s.CellMS...)
		if !s.Traced {
			untraced = append(untraced, s.Seconds)
			continue
		}
		traced = append(traced, s.Seconds)
		for _, sp := range s.Spans {
			name := "exp.artifact_s." + strings.TrimPrefix(sp.Name, "exp.")
			artifactS[name] = append(artifactS[name], sp.seconds())
		}
	}
	m := medianLayers(layers)
	m["exp.cell_p50_ms"], _ = percentile(cells, 0.5)
	m["exp.cell_p99_ms"], _ = tail(cells, 0.99)
	for name, vs := range artifactS {
		m[name] = median(vs)
	}
	if len(traced) > 0 && len(untraced) > 0 {
		m["trace.overhead_ms"] = 1e3 * (median(traced) - median(untraced))
	}
	return m
}

// bootProbes boots setupBoots workers of mode over empty directories and
// stops each at once, returning the set-up times they report.
func bootProbes(cfg config, mode string) ([]float64, error) {
	var setups []float64
	for i := 0; i < setupBoots; i++ {
		dir := filepath.Join(cfg.work, "boot-"+strconv.Itoa(i))
		w, err := startWorker("-worker", mode, "-dir", dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, w.setup)
		_, err = w.finish(&struct{}{})
		if err := errors.Join(err, os.RemoveAll(dir)); err != nil {
			return nil, err
		}
	}
	return setups, nil
}

func traceFor(cfg config) *tracer {
	if cfg.trace {
		return &tracer{}
	}
	return nil
}

// serveMix measures tnpu-serve in epochs. Each epoch boots a fresh server
// over an empty cache directory (set-up), then sends two phases of
// requests from nproc closed-loop connections:
//
//   - cold: every catalog key once, in catalog order, so every cell,
//     figure and sweep is computed from nothing (regen_s is its wall);
//   - mix: mixRequests requests drawn from the seeded Zipf stream, in
//     mixSegments segments, all answered from the server's disk store
//     (op_per_s is the median segment rate; the latencies are per request).
//
// The phases are kept apart because a mixed stream's p99 lands on the
// steep tail of the cold computations (one rank apart can differ 2x), and
// a fixed cold order keeps the computed work identical from run to run.
// Epochs repeat until the run's seconds are used (at least one).
func serveMix(cfg config) (outcome, error) {
	p, err := loadPins()
	if err != nil {
		return outcome{}, err
	}
	keys := catalog()
	coldSeq := inOrder(len(keys))
	stream := newRequestStream(cfg.seed, len(keys))
	out := outcome{spans: traceFor(cfg)}
	setups, err := bootProbes(cfg, "serve")
	if err != nil {
		return out, err
	}
	var (
		colds, mixRates, rss, mixMS []float64
		tracedMS, untracedMS        []float64
		coldByKind                  = map[string][]float64{}
		mixByKind                   = map[string][]float64{}
		layers                      []map[string]float64
	)
	tally := func(replies []reply, byKind map[string][]float64) {
		for _, r := range replies {
			out.attempted++
			if !r.ok {
				out.failed++
			}
			byKind[keys[r.key].Kind] = append(byKind[keys[r.key].Kind], r.ms)
		}
	}
	start := time.Now()
	for e := 0; e == 0 || elapsed(start) < cfg.seconds; e++ {
		dir := filepath.Join(cfg.work, "serve-"+strconv.Itoa(e))
		epoch := out.spans.open("serve.epoch", 0)
		w, err := startWorker("-worker", "serve", "-dir", dir)
		if err != nil {
			return out, err
		}
		var tr *tracer
		if cfg.trace && e%2 == 0 {
			tr = out.spans
		}
		cold, coldWall, cerr := playEpoch(w.ready, keys, coldSeq, nproc, p.Serve, tr, epoch)
		var mix []reply
		var mixWall float64
		var merr error
		for s := 0; s < mixSegments; s++ {
			seg, wall, err := playEpoch(w.ready, keys, stream.next(mixRequests/mixSegments), nproc, p.Serve, tr, epoch)
			mix, mixWall = append(mix, seg...), mixWall+wall
			mixRates = append(mixRates, float64(len(seg))/wall)
			if merr == nil {
				merr = err
			}
		}
		st, serr := serveStats(w.ready)
		var rep serveReport
		peak, ferr := w.finish(&rep)
		out.spans.close(epoch)
		if err := errors.Join(serr, ferr, os.RemoveAll(dir)); err != nil {
			return out, err
		}
		if perr := errors.Join(cerr, merr); perr != nil && out.mismatch == nil {
			out.mismatch = perr
		}
		fmt.Fprintf(os.Stderr, "epoch %d: set-up %.6fs, cold %d requests in %.3fs, mix %d requests in %.3fs, peak RSS %.0f MB\n",
			e, w.setup, len(cold), coldWall, len(mix), mixWall, peak)
		setups, colds, rss = append(setups, w.setup), append(colds, coldWall), append(rss, peak)
		tally(cold, coldByKind)
		tally(mix, mixByKind)
		for _, r := range mix {
			mixMS = append(mixMS, r.ms)
			if tr != nil {
				tracedMS = append(tracedMS, r.ms)
			} else {
				untracedMS = append(untracedMS, r.ms)
			}
		}
		l := rep.Layers
		l["serve.store_lookups"] = float64(st.Store.Lookups)
		l["serve.store_disk_hits"] = float64(st.Store.DiskHits)
		l["serve.store_flight_hits"] = float64(st.Store.FlightHits)
		l["serve.store_computes"] = float64(st.Store.Computes)
		if st.Store.Lookups > 0 {
			l["serve.hit_ratio"] = float64(st.Store.DiskHits+st.Store.FlightHits) / float64(st.Store.Lookups)
		}
		l["serve.queue_rejected"] = float64(st.Queue.Rejected)
		layers = append(layers, l)
	}

	out.endToEnd = map[string]float64{
		"setup_s":     median(setups),
		"regen_s":     median(colds),
		"op_per_s":    median(mixRates),
		"peak_rss_mb": median(rss),
	}
	out.perLayer = medianLayers(layers)
	out.perLayer["serve.lat_p50_ms"], _ = percentile(mixMS, 0.5)
	p99, ok := percentile(mixMS, 0.99)
	if !ok {
		return out, fmt.Errorf("serve_mix: %d requests leave fewer than %d beyond p99", len(mixMS), minBeyond)
	}
	out.perLayer["serve.lat_p99_ms"] = p99
	for kind, ms := range mixByKind {
		out.perLayer["serve.requests."+kind] = float64(len(ms))
		out.perLayer["serve.lat_p50_ms."+kind], _ = percentile(ms, 0.5)
		out.perLayer["serve.lat_p99_ms."+kind], _ = tail(ms, 0.99)
	}
	for kind, ms := range coldByKind {
		out.perLayer["serve.cold_p50_ms."+kind], _ = percentile(ms, 0.5)
		out.perLayer["serve.cold_p99_ms."+kind], _ = tail(ms, 0.99) // 0 below 20 samples
	}
	if len(tracedMS) > 0 && len(untracedMS) > 0 {
		out.perLayer["trace.overhead_ms"] = median(tracedMS) - median(untracedMS)
	}
	return out, nil
}

// writePins recomputes every correctness pin from the current code and
// writes them to path: one cold regeneration, and every serve_mix catalog
// key requested once cold and once from the server's disk store (the two
// bodies must agree).
func writePins(path, work string) error {
	samples, _, err := regenWorker(nil, filepath.Join(work, "pin-regen"), 0, false)
	if err != nil {
		return err
	}
	p := pins{ArtifactSHA: samples[0].ArtifactSHA, CellSHA: samples[0].CellSHA, Serve: map[string]string{}}

	keys := catalog()
	seq := inOrder(len(keys))
	w, err := startWorker("-worker", "serve", "-dir", filepath.Join(work, "pin-serve"))
	if err != nil {
		return err
	}
	bodies := [2]map[int][]byte{{}, {}}
	var perr [2]error
	for pass := range bodies {
		var replies []reply
		replies, _, perr[pass] = playEpoch(w.ready, keys, seq, 1, nil, nil, 0)
		for _, r := range replies {
			bodies[pass][r.key] = r.body
		}
	}
	var rep serveReport
	_, ferr := w.finish(&rep)
	if err := errors.Join(perr[0], perr[1], ferr); err != nil {
		return err
	}
	for i, k := range keys {
		if string(bodies[0][i]) != string(bodies[1][i]) {
			return fmt.Errorf("%s: cold and disk-served bodies differ", k.Path)
		}
		sum := sha256.Sum256(bodies[0][i])
		p.Serve[k.Path] = hex.EncodeToString(sum[:])
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
