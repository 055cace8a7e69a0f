package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/astopo"
	"github.com/bgpstream-go/bgpstream/internal/collector"
	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/merge"
)

// corpusParams are the generator knobs of one corpus part. The seed is
// not among them: it is the benchmark's argument.
type corpusParams struct {
	Part     string        `json:"part"`
	DumpType core.DumpType `json:"dump_type"` // the dump type the part exists for
	Hours    int           `json:"hours"`
	VPs      int           `json:"vps_per_collector"`
	Stubs    int           `json:"stubs"`
	Churn    float64       `json:"churn_flaps_per_hour"`
}

// The two corpus parts. Both use the canonical two collectors
// (ris/rrc00, routeviews/route-views2). Sizes are what the run-time cap
// of the benchmark contract leaves room for: the part is regenerated
// three times in every run so that setup_s is a median. Scale with VPs
// and hours, never stubs (routing cost grows with the square).
var (
	// updates: 128 small update files (96 five-minute RIS files, 32
	// fifteen-minute RouteViews files) chained into one wide §3.3.4
	// overlap partition, about 0.5 M update elems.
	updatesPart = corpusParams{Part: "updates", DumpType: core.DumpType(archive.DumpUpdates), Hours: 8, VPs: 16, Stubs: 1000, Churn: 2000}
	// rib: four RIB dumps (RIS at 0 h; RouteViews at 0, 2, 4 h), about
	// 0.36 M RIB elems, next to no updates.
	ribPart = corpusParams{Part: "rib", DumpType: core.DumpType(archive.DumpRIB), Hours: 6, VPs: 32, Stubs: 2000, Churn: 10}
)

var corpusStart = time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)

type fileEntry struct {
	Rel    string `json:"rel"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// manifest pins what a corpus part is: a run asserts that every
// regeneration in its set-up yields the same manifest, and a result
// carries the manifest hash so that two results are comparable only
// when they read the same bytes.
type manifest struct {
	Seed   int64        `json:"seed"`
	Params corpusParams `json:"params"`
	Files  []fileEntry  `json:"files"`
	// TypedFiles and WidestPartition describe the files of
	// Params.DumpType: how many there are and the widest §3.3.4 overlap
	// partition among them (the merge fan-in the stream will see).
	TypedFiles      int `json:"typed_files"`
	WidestPartition int `json:"widest_partition"`
	// Elems is the number of elems of Params.DumpType, filled in by the
	// caller from its pass of the sequential reference pipeline.
	Elems int `json:"elems"`
}

func (m *manifest) hash() string {
	data, err := json.Marshal(m)
	if err != nil {
		panic(err) // plain data, cannot fail
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// generateCorpus writes one corpus part under dir (replacing whatever
// is there) and returns its manifest, Elems still unset.
func generateCorpus(dir string, seed int64, p corpusParams) (*manifest, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	tp := astopo.DefaultParams(seed)
	tp.StubCount = p.Stubs
	topo := astopo.Generate(tp)
	sim, err := collector.NewSimulator(collector.Config{
		Topo:              topo,
		Collectors:        collector.DefaultCollectors(topo, p.VPs),
		ChurnFlapsPerHour: p.Churn,
		Seed:              seed,
	})
	if err != nil {
		return nil, err
	}
	store, err := archive.NewStore(dir)
	if err != nil {
		return nil, err
	}
	metas, err := sim.GenerateArchive(store, corpusStart, corpusStart.Add(time.Duration(p.Hours)*time.Hour))
	if err != nil {
		return nil, err
	}
	m := &manifest{Seed: seed, Params: p}
	var typed []merge.Interval
	for _, meta := range metas {
		rel, err := filepath.Rel(dir, meta.URL)
		if err != nil {
			return nil, err
		}
		size, sum, err := hashFile(meta.URL)
		if err != nil {
			return nil, err
		}
		m.Files = append(m.Files, fileEntry{Rel: filepath.ToSlash(rel), Bytes: size, SHA256: sum})
		if meta.Type == p.DumpType {
			start, end := meta.Interval()
			typed = append(typed, merge.Interval{Start: start, End: end})
		}
	}
	m.TypedFiles = len(typed)
	for _, g := range merge.PartitionOverlapping(typed) {
		m.WidestPartition = max(m.WidestPartition, len(g))
	}
	return m, nil
}

func hashFile(path string) (int64, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, "", err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return 0, "", err
	}
	return n, hex.EncodeToString(h.Sum(nil)), nil
}

// scanElems runs the sequential reference pipeline — directory source,
// one decode worker — over dir and calls fn for every elem that passes
// filters. The elem is only valid during the call.
func scanElems(dir string, filters core.Filters, fn func(*core.Record, *core.Elem)) (int, error) {
	s := core.NewStream(context.Background(), &core.Directory{Dir: dir}, filters)
	defer s.Close()
	s.SetDecodeWorkers(1)
	n := 0
	for {
		rec, e, err := s.NextElem()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		fn(rec, e)
		n++
	}
}

// prefixHistogram counts elems by the /12 their IPv4 prefix falls in;
// the filter prefixes of pull_filtered_dir and push_live are chosen
// from it so that their pass share holds for any seed.
type prefixHistogram struct {
	by12  map[netip.Prefix]int
	total int // all elems seen, with or without a prefix
}

func (h *prefixHistogram) add(e *core.Elem, counted bool) {
	h.total++
	if !counted || !e.Prefix.IsValid() || !e.Prefix.Addr().Is4() || e.Prefix.Bits() < 12 {
		return
	}
	if h.by12 == nil {
		h.by12 = make(map[netip.Prefix]int)
	}
	h.by12[netip.PrefixFrom(e.Prefix.Addr(), 12).Masked()]++
}

// atLength aggregates the histogram to a shorter prefix length, in
// address order.
func (h *prefixHistogram) atLength(bits int) ([]netip.Prefix, map[netip.Prefix]int) {
	agg := make(map[netip.Prefix]int)
	for p, n := range h.by12 {
		agg[netip.PrefixFrom(p.Addr(), bits).Masked()] += n
	}
	keys := make([]netip.Prefix, 0, len(agg))
	for p := range agg {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Addr().Less(keys[j].Addr()) })
	return keys, agg
}

// closest returns the /8../12 whose share of all elems is nearest to
// target.
func (h *prefixHistogram) closest(target float64) netip.Prefix {
	var best netip.Prefix
	bestShare := math.Inf(1)
	for bits := 8; bits <= 12; bits++ {
		keys, agg := h.atLength(bits)
		for _, p := range keys {
			share := float64(agg[p]) / float64(h.total)
			if math.Abs(share-target) < math.Abs(bestShare-target) {
				best, bestShare = p, share
			}
		}
	}
	return best
}

// cover returns the run of /8s, from the lowest address up, whose summed
// share of all elems is nearest to target.
func (h *prefixHistogram) cover(target float64) []netip.Prefix {
	keys, agg := h.atLength(8)
	sum, best, bestShare := 0, 0, math.Inf(1)
	for i, p := range keys {
		sum += agg[p]
		if share := float64(sum) / float64(h.total); math.Abs(share-target) < math.Abs(bestShare-target) {
			best, bestShare = i+1, share
		}
	}
	return keys[:best]
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
