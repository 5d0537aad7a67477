package main

import (
	"encoding/json"
	"math"
	"net/url"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestRequestStreamDeterministicPerSeed(t *testing.T) {
	n := len(catalog())
	a := newRequestStream(7, n).next(5000)
	b := newRequestStream(7, n).next(5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different request sequences")
	}
	if c := newRequestStream(8, n).next(5000); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 drew the same request sequence")
	}
	for _, i := range a {
		if i < 0 || i >= n {
			t.Fatalf("drew catalog index %d of %d", i, n)
		}
	}
}

func TestRequestStreamIsZipfSkewed(t *testing.T) {
	n := len(catalog())
	counts := make([]int, n)
	for _, i := range newRequestStream(1, n).next(100000) {
		counts[i]++
	}
	max, min := 0, counts[0]
	for _, c := range counts {
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	// Rank 1 against rank n has weight ratio n^zipfS.
	want := math.Pow(float64(n), zipfS)
	if ratio := float64(max) / float64(min+1); ratio < want/2 || ratio > want*2 {
		t.Fatalf("most/least popular key ratio %.1f, want about %.1f", ratio, want)
	}
}

func TestCatalogIsSingleNPUWork(t *testing.T) {
	keys := catalog()
	kinds := map[string]int{}
	seen := map[string]bool{}
	for _, k := range keys {
		kinds[k.Kind]++
		if seen[k.Path] {
			t.Errorf("duplicate catalog key %s", k.Path)
		}
		seen[k.Path] = true
		for _, banned := range []string{"fig16", "npucount", "/api/mixed", "models="} {
			if strings.Contains(k.Path, banned) {
				t.Errorf("catalog key %s asks for multi-NPU work (%s)", k.Path, banned)
			}
		}
		u, err := url.Parse(k.Path)
		if err != nil {
			t.Fatal(err)
		}
		if count := u.Query().Get("count"); count != "1" && (k.Kind == "cell" || count != "") {
			t.Errorf("catalog key %s asks for count=%q, want 1", k.Path, count)
		}
	}
	want := map[string]int{"cell": 14 * 2 * 4, "figure": 5, "sweep": 3 * 14}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("catalog kinds %v, want %v", kinds, want)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	if v, ok := percentile(samples(1000), 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with ten beyond", v, ok)
	}
	if _, ok := percentile(samples(999), 0.99); ok {
		t.Fatal("p99 of 999 samples has only nine beyond it but was accepted")
	}
	if v, ok := percentile(samples(4), 0.5); ok || v != 2 {
		t.Fatalf("median of 1..4 by nearest rank = %v, %v; want 2, not supported", v, ok)
	}
	// tail falls back to the highest percentile with ten beyond.
	v, ok := tail(samples(100), 0.99)
	if !ok || v != 90 {
		t.Fatalf("tail of 1..100 = %v, %v; want 90 (ten beyond)", v, ok)
	}
	if _, ok := tail(samples(19), 0.99); ok {
		t.Fatal("tail of 19 samples would fall below the median")
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricsMatchBenchmarkJSON pins the declared metrics to
// BENCHMARK.json: every name well formed and unique, every unit the same.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(section string, declared []metric, listed []struct{ Name, Unit string }) {
		if len(declared) != len(listed) {
			t.Errorf("%s: program declares %d metrics, BENCHMARK.json lists %d", section, len(declared), len(listed))
			return
		}
		for i, m := range declared {
			if m.name != listed[i].Name || m.unit != listed[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", section, i, m.name, m.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEndMetrics, doc.EndToEnd)
	check("per_layer", perLayerMetrics, doc.PerLayer)

	seen := map[string]bool{}
	names := []string{}
	for _, m := range append(append([]metric(nil), endToEndMetrics...), perLayerMetrics...) {
		names = append(names, m.name)
	}
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists workload %s the program does not run", w.Name)
		}
	}
	for _, name := range names {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
}

func TestParseRunLabels(t *testing.T) {
	c, ok := parseRunLabel("sent/large/encrypt-only x3")
	if !ok || c.short != "sent" || c.class.String() != "large" || c.scheme.String() != "encrypt-only" || c.count != 3 {
		t.Fatalf("parseRunLabel = %+v, %v", c, ok)
	}
	if _, ok := parseE2ELabel("df/small/tnpu e2e"); !ok {
		t.Fatal("e2e label did not parse")
	}
	for _, bad := range []string{"df/sweep/tnpu", "df spm=480KB", "mixed[df,res]/small/tnpu", "df/medium/tnpu x1"} {
		if _, ok := parseRunLabel(bad); ok {
			t.Errorf("parseRunLabel accepted %q", bad)
		}
	}
}

func TestTracerAdoptRenumbers(t *testing.T) {
	tr := &tracer{}
	root := tr.open("worker", 0)
	tr.close(root)
	worker := []span{{ID: 1, Name: "a"}, {ID: 2, Parent: 1, Name: "b"}}
	tr.adopt(worker, root)
	tr.adopt(worker, root)
	ids := map[int]span{}
	for _, s := range tr.snapshot() {
		if _, dup := ids[s.ID]; dup {
			t.Fatalf("span ID %d used twice", s.ID)
		}
		ids[s.ID] = s
	}
	for _, s := range ids {
		switch s.Name {
		case "a":
			if s.Parent != root {
				t.Errorf("adopted root %d has parent %d, want %d", s.ID, s.Parent, root)
			}
		case "b":
			if ids[s.Parent].Name != "a" {
				t.Errorf("adopted child %d has parent %d (%s), want its own batch's a", s.ID, s.Parent, ids[s.Parent].Name)
			}
		}
	}
	if len(ids) != 5 {
		t.Fatalf("%d spans, want 5", len(ids))
	}
}
