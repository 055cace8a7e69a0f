package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/bgpdump"
	"github.com/bgpstream-go/bgpstream/internal/core"
)

// tinyPart is small enough for `go test`; the real runs live behind
// main, never behind a test.
var tinyPart = corpusParams{Part: "tiny", DumpType: core.DumpType(archive.DumpUpdates), Hours: 1, VPs: 4, Stubs: 60, Churn: 300}

func tinyCorpus(t *testing.T, seed int64) (string, *manifest, reference) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "corpus")
	man, err := generateCorpus(dir, seed, tinyPart)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := computeReference(dir, core.Filters{DumpTypes: []core.DumpType{tinyPart.DumpType}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	man.Elems = ref.Lines
	return dir, man, ref
}

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	_, a, refA := tinyCorpus(t, 11)
	_, b, _ := tinyCorpus(t, 11)
	if a.hash() != b.hash() {
		t.Errorf("seed 11 gave two manifests:\n%+v\n%+v", a, b)
	}
	_, c, refC := tinyCorpus(t, 12)
	if c.hash() == a.hash() || refC.Digest == refA.Digest {
		t.Error("seeds 11 and 12 gave the same corpus")
	}
	if a.TypedFiles == 0 || a.WidestPartition == 0 || a.Elems == 0 {
		t.Errorf("manifest left empty: %+v", a)
	}
}

// A corrupted output must count as a failed run: flip one byte of a
// correct output and the check has to say so.
func TestFlippedOutputByteFails(t *testing.T) {
	dir, _, ref := tinyCorpus(t, 11)
	var out bytes.Buffer
	if _, err := scanElems(dir, core.Filters{DumpTypes: []core.DumpType{tinyPart.DumpType}}, func(rec *core.Record, e *core.Elem) {
		out.WriteString(bgpdump.FormatElem(rec, e) + "\n")
	}); err != nil {
		t.Fatal(err)
	}
	res := &runResult{}
	res.count(verifyOutput(bytes.NewReader(out.Bytes()), ref))
	if res.Failed != 0 {
		t.Fatalf("the correct output was rejected")
	}
	flipped := append([]byte(nil), out.Bytes()...)
	flipped[len(flipped)/2] ^= 0x01
	res.count(verifyOutput(bytes.NewReader(flipped), ref))
	res.count(verifyOutput(bytes.NewReader(out.Bytes()[:out.Len()/2]), ref)) // short output
	if res.Attempted != 3 || res.Failed != 2 {
		t.Errorf("attempted %d, failed %d; want 3 and 2", res.Attempted, res.Failed)
	}
}

func TestStats(t *testing.T) {
	xs := []float64{10.5, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v", got)
	}
	// Python: statistics.quantiles([1..9, 10.5], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// Python: statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	if q1, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles of two = %v, %v", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
	for n, want := range map[int]float64{5: 0.5, 100: 0.9, 999: 0.95, 1000: 0.99, 10000: 0.999, 100000: 0.9999} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	if got := quantileSorted([]float64{1, 2, 3, 4}, 0.5); got != 2 {
		t.Errorf("quantileSorted = %v", got)
	}
}

func TestInOrder(t *testing.T) {
	want := []int64{1, 2, 3, 4, 5}
	for _, c := range []struct {
		got  []int64
		want int
	}{
		{[]int64{1, 2, 3, 4, 5}, 5},
		{[]int64{1, 2, 4, 5}, 4},    // one lost
		{[]int64{1, 3, 2, 4, 5}, 4}, // one reordered
		{nil, 0},
	} {
		if got := inOrder(want, c.got); got != c.want {
			t.Errorf("inOrder(%v) = %d, want %d", c.got, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "m", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "m", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		d    metricDef
		cand []float64
		want string
	}{
		{lower, []float64{104, 105, 103, 104, 104}, "ok"},
		{lower, []float64{120, 121, 119, 120, 120}, "regressed"},
		{lower, []float64{80, 81, 79, 80, 80}, "ok"}, // better is never a regression
		{higher, []float64{80, 81, 79, 80, 80}, "regressed"},
		{lower, []float64{70, 130, 100, 60, 140}, "unresolved"},
	} {
		if _, got := verdict(c.d, tight, c.cand); got != c.want {
			t.Errorf("%s %v: %s, want %s", c.d.Better, c.cand, got, c.want)
		}
	}
}

// BENCHMARK.json is written by hand; what it says must be what the
// harness measures.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, harness has %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: %+v, harness has %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

func TestRefusesMoreCPUsThanTheHostHas(t *testing.T) {
	if err := limitCPUs(1 << 20); err == nil {
		t.Error("-cpu above nproc was accepted")
	}
	t.Setenv("GOMAXPROCS", "1048576")
	if err := limitCPUs(0); err == nil {
		t.Error("GOMAXPROCS above nproc was accepted")
	}
}
