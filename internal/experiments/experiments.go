// Package experiments regenerates every table and figure of the
// paper's evaluation. Each experiment builds its workload from the
// deterministic simulator substrate, runs the same BGPStream pipeline
// the paper used, and reports rows in the shape of the original
// table/figure so paper-vs-measured comparisons are direct.
//
// The cmd/experiments tool lists and prints the experiments.
package experiments

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/astopo"
	"github.com/bgpstream-go/bgpstream/internal/collector"
)

// Result is one regenerated table/figure.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes carries the paper-vs-measured summary lines.
	Notes []string
}

// Format renders the result as aligned ASCII.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) && len(c) < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config tunes experiment scale.
type Config struct {
	// Seed drives every random choice; equal seeds give identical
	// output.
	Seed int64
	// Scale multiplies workload sizes (1.0 = default laptop scale;
	// benches use smaller).
	Scale float64
	// Dir is the workspace for generated archives; empty uses a
	// temporary directory cleaned on exit.
	Dir string
}

func (c Config) scale(n int) int {
	if c.Scale <= 0 {
		return n
	}
	s := int(float64(n) * c.Scale)
	if s < 1 {
		s = 1
	}
	return s
}

func (c Config) workspace() (string, func(), error) {
	if c.Dir != "" {
		if err := os.MkdirAll(c.Dir, 0o755); err != nil {
			return "", nil, err
		}
		return c.Dir, func() {}, nil
	}
	dir, err := os.MkdirTemp("", "bgpstream-exp-*")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// runner is one experiment implementation.
type runner func(cfg Config) (*Result, error)

var registry = map[string]struct {
	title string
	run   runner
}{
	"table1":           {"Table 1: BGPStream elem decomposition", runTable1},
	"fig3":             {"Figure 3: intra/inter-collector sorted stream", runFig3},
	"sorting-overhead": {"§3.3.4: sorting cost vs read cost", runSortingOverhead},
	"listing1":         {"Listing 1: AS path inflation", runListing1},
	"fig4":             {"Figure 4: RTBH data-plane reachability", runFig4},
	"fig5a":            {"Figure 5a: IPv4 routing table growth", runFig5a},
	"fig5b":            {"Figure 5b: MOAS sets, overall vs per-collector", runFig5b},
	"fig5c":            {"Figure 5c: transit AS fraction, IPv4 vs IPv6", runFig5c},
	"fig5d":            {"Figure 5d: community diversity per VP/collector", runFig5d},
	"fig6":             {"Figure 6: pfxmonitor hijack detection", runFig6},
	"fig9":             {"Figure 9: RT diff cells vs BGP elems", runFig9},
	"rt-accuracy":      {"§6.2.1: RT reconstruction error probability", runRTAccuracy},
	"fig10":            {"Figure 10: per-country/per-AS outage detection", runFig10},
	"latency":          {"§2: dump publication latency", runLatency},
}

// List returns all experiment IDs, sorted.
func List() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(List(), ", "))
	}
	res, err := e.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID = id
	res.Title = e.title
	return res, nil
}

// defaultStart is the common simulation epoch.
var defaultStart = time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)

// buildEnv generates a standard archive: topology, two collectors,
// churn, optional events.
type env struct {
	topo   *astopo.Topology
	colls  []collector.Collector
	store  *archive.Store
	start  time.Time
	end    time.Time
	events []collector.Event
}

type envOpts struct {
	hours       int
	vps         int
	stubs       int
	churn       float64
	stubPeering float64
	events      []collector.Event
}

func buildEnv(cfg Config, dir string, o envOpts) (*env, error) {
	p := astopo.DefaultParams(cfg.Seed + 1)
	if o.stubs > 0 {
		p.StubCount = o.stubs
	}
	p.StubPeeringProb = o.stubPeering
	topo := astopo.Generate(p)
	vps := o.vps
	if vps == 0 {
		vps = 8
	}
	colls := collector.DefaultCollectors(topo, vps)
	sim, err := collector.NewSimulator(collector.Config{
		Topo:              topo,
		Collectors:        colls,
		Events:            o.events,
		ChurnFlapsPerHour: o.churn,
		Seed:              cfg.Seed + 2,
	})
	if err != nil {
		return nil, err
	}
	store, err := archive.NewStore(dir)
	if err != nil {
		return nil, err
	}
	end := defaultStart.Add(time.Duration(o.hours) * time.Hour)
	if _, err := sim.GenerateArchive(store, defaultStart, end); err != nil {
		return nil, err
	}
	return &env{topo: topo, colls: colls, store: store, start: defaultStart, end: end, events: o.events}, nil
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
func itoa(v int) string    { return fmt.Sprintf("%d", v) }
