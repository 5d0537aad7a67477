package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tnpu/internal/memprot"
	"tnpu/internal/model"
	"tnpu/internal/serve"
)

// catalogKey is one serve_mix request: an endpoint kind and its URL path.
type catalogKey struct {
	Kind string // "cell", "figure", or "sweep"
	Path string
}

// serveFigures are the figures serve_mix asks for: every single-NPU
// figure. fig16 is left out because its cells are co-tenant multi-NPU
// runs; serve_mix is the workload that bypasses multi-NPU arbitration.
var serveFigures = []string{"fig4", "fig5", "fig14", "fig15", "fig17"}

// serveSweeps are the one-axis sensitivity sweeps (single-NPU points).
// npucount is left out for the same reason as fig16.
var serveSweeps = []string{"bandwidth", "spm", "latency"}

// catalog lists every serve_mix request in a fixed order: one count=1
// cell per model, class and scheme; the single-NPU figures; and each
// one-axis sweep per model.
func catalog() []catalogKey {
	var keys []catalogKey
	for _, short := range model.ShortNames() {
		for _, class := range []string{"small", "large"} {
			for _, scheme := range memprot.AllSchemes() {
				keys = append(keys, catalogKey{"cell",
					fmt.Sprintf("/api/cell?model=%s&class=%s&scheme=%s&count=1", short, class, scheme)})
			}
		}
	}
	for _, id := range serveFigures {
		keys = append(keys, catalogKey{"figure", "/api/figure/" + id})
	}
	for _, kind := range serveSweeps {
		for _, short := range model.ShortNames() {
			keys = append(keys, catalogKey{"sweep", fmt.Sprintf("/api/sweep/%s?model=%s", kind, short)})
		}
	}
	return keys
}

// zipfS is the popularity skew: the key of rank k (from 1) is drawn with
// weight k^-zipfS. No request log of tnpu-serve exists to measure it from,
// so the mix is synthetic. The value is borrowed from web traffic: Breslau
// et al., "Web Caching and Zipf-like Distributions: Evidence and
// Implications" (INFOCOM 1999), fit exponents of 0.64 to 0.83 to six web
// proxy traces. The mix phase answers every request from the server's disk
// store whatever the skew, so the exponent changes which keys repeat, not
// which path serves them.
const zipfS = 0.8

// requestStream draws catalog indices with Zipf-skewed popularity. The
// seed fixes both which key holds which popularity rank and the order of
// the draws.
type requestStream struct {
	rng   *rand.Rand
	byRnk []int     // rank -> catalog index
	cdf   []float64 // cumulative rank weights, normalized to 1
}

func newRequestStream(seed int64, n int) *requestStream {
	rng := rand.New(rand.NewSource(seed))
	cdf := make([]float64, n)
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -zipfS)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return &requestStream{rng: rng, byRnk: rng.Perm(n), cdf: cdf}
}

// next returns the next n catalog indices.
func (s *requestStream) next(n int) []int {
	out := make([]int, n)
	for i := range out {
		rank := sort.SearchFloat64s(s.cdf, s.rng.Float64())
		if rank >= len(s.cdf) {
			rank = len(s.cdf) - 1
		}
		out[i] = s.byRnk[rank]
	}
	return out
}

// inOrder is the request sequence 0..n-1: each catalog key once, in
// catalog order.
func inOrder(n int) []int {
	seq := make([]int, n)
	for i := range seq {
		seq[i] = i
	}
	return seq
}

// reply is one completed request. Its body is kept only when there are
// no pins to check it against (pin generation).
type reply struct {
	key  int
	ms   float64
	ok   bool
	body []byte
}

// playEpoch sends seq against base from clients closed-loop connections:
// each client takes the next request only after its previous reply. It
// checks every body against pins (a missing pin is a mismatch; nil pins
// checks nothing) and returns the replies in completion order, the wall
// time from first send to last reply, and the first failure, if any.
func playEpoch(base string, keys []catalogKey, seq []int, clients int, pins map[string]string, tr *tracer, parent int) ([]reply, float64, error) {
	transport := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 120 * time.Second}

	var (
		next     atomic.Int64
		mu       sync.Mutex
		replies  = make([]reply, 0, len(seq))
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				k := keys[seq[i]]
				id := tr.open("serve."+k.Kind, parent)
				t0 := time.Now()
				body, err := get(client, base+k.Path)
				ms := float64(time.Since(t0)) / 1e6
				tr.close(id)
				ok := err == nil
				if ok && pins != nil {
					if sum := sha256.Sum256(body); pins[k.Path] != hex.EncodeToString(sum[:]) {
						ok, err = false, fmt.Errorf("%s: body digest %x does not match its pin", k.Path, sum[:6])
					}
				}
				if err != nil {
					fail(err)
				}
				mu.Lock()
				r := reply{key: seq[i], ms: ms, ok: ok}
				if pins == nil {
					r.body = body
				}
				replies = append(replies, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(start).Seconds(), firstErr
}

// get fetches url and returns its body, failing on any status but 200.
func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// serveStats fetches the server's /stats counters.
func serveStats(base string) (serve.StatsDoc, error) {
	var doc serve.StatsDoc
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	body, err := get(&http.Client{Transport: transport}, base+"/stats")
	if err != nil {
		return doc, err
	}
	return doc, json.Unmarshal(body, &doc)
}
