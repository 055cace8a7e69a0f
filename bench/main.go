// Command bench is the repository's benchmark: it generates a seeded
// corpus, builds cmd/bgpreader from this checkout, measures the shipped
// binary (pull) and rislive.Server/Client over loopback TCP (push) on
// four named workloads, checks every output against a reference, and in
// a separate traced pass attributes the time to each layer. README.md
// in this directory defines every metric, layer and workload.
//
// One measured run, as BENCHMARK.json's command starts it:
//
//	bash bench/run.sh --workload pull_rib_dir --seed 11 --seconds 8 --trace 0
//
// A set of runs of every workload, and the comparison of two sets:
//
//	bash bench/run.sh -runs 10 -o bench/out/a.json
//	bash bench/run.sh -compare bench/out/a.json bench/out/b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// metricDef names one metric of BENCHMARK.json. Bound is the share of
// the baseline median by which an end-to-end metric may worsen before
// it counts as a regression (per-layer metrics have none).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; README.md says what each means on pull and on
// push workloads. One bound serves all four workloads, so it is set by
// the noisiest: about three times the widest spread between quartiles
// seen over ten seeds on a quiet host, capped at the contract's 25 %.
var endToEnd = []metricDef{
	{"elems_per_s", "elems/s", "higher", 0.20},
	{"cpu_s_per_melem", "s/Melem", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

type workload struct {
	name string
	why  string
	part corpusParams
	run  func(*env, *workload) (*runResult, error)
	// What set-up has to provide besides the corpus part and, for a
	// pull workload, the reference and the binary.
	http     bool // a CSV index of the part on the harness's archive.Server
	filtered bool // an elem filter passing 1-2 %
	push     bool // no reference and no binary
}

var workloads = []*workload{
	{
		name: "pull_updates_http",
		why:  "128 small update files over loopback HTTP in one wide overlap partition: fetch, per-file open, prefetch and k-way merge matter most",
		part: updatesPart, run: (*env).runPull, http: true,
	},
	{
		name: "pull_rib_dir",
		why:  "four big RIB dumps from local disk: inflate, MRT framing, attribute decode and bgpdump formatting do the work; per-file cost must not show",
		part: ribPart, run: (*env).runPull,
	},
	{
		name: "pull_filtered_dir",
		why:  "the update files behind a 1-2 % prefix filter: every elem is decoded and matched, almost none is formatted or written",
		part: updatesPart, run: (*env).runPull, filtered: true,
	},
	{
		name: "push_live",
		why:  "rislive server and SSE + WebSocket clients over loopback TCP: open-loop 20 k elems/s for latency, then a flood for capacity and drops",
		part: updatesPart, run: (*env).runPushWorkload, push: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is where and how one run happens.
type env struct {
	root    string // the checkout
	work    string // scratch of this workload, under root/.bench_build
	seed    int64
	seconds float64
	traced  bool // the per-layer pass, not the end-to-end run
}

// runResult is the outcome of one run of one workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"` // the metrics BENCHMARK.json names
	Extra     map[string]float64 `json:"extra"`   // reported as well, without a contract
	Manifest  string             `json:"corpus_manifest_sha256"`
	Host      *hostRecord        `json:"host,omitempty"`
}

func newRunResult(man *manifest) *runResult {
	return &runResult{Metrics: map[string]float64{}, Extra: map[string]float64{}, Manifest: man.hash()}
}

// count books one attempted operation; why is "" when it succeeded.
func (r *runResult) count(why string) {
	r.Attempted++
	if why != "" {
		r.Failed++
	}
}

const setupRepeats = 3

// repeatSetup does a workload's whole set-up setupRepeats times and
// returns the last one with the median duration in seconds, so that one
// slow build or a cold cache does not decide setup_s. Each set-up runs
// in a child process of its own: every repetition starts from the same
// state, and the harness stays small, which matters because Linux
// starts a child's Rusage.Maxrss at the peak RSS of the process that
// forked it. Every repetition must yield the same corpus manifest: the
// corpus is a function of the seed alone.
func (e *env) repeatSetup(w *workload, baseURL string) (*prepared, float64, error) {
	var took []float64
	var p *prepared
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		next, err := e.setupChild(w, baseURL)
		if err != nil {
			return nil, 0, err
		}
		took = append(took, time.Since(t0).Seconds())
		if p != nil && next.Manifest.hash() != p.Manifest.hash() {
			return nil, 0, errors.New("set-up: the same seed produced two different corpora")
		}
		p = next
	}
	return p, median(took), nil
}

// setupChild does the set-up once, in a child process.
func (e *env) setupChild(w *workload, baseURL string) (*prepared, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-root", e.root, "-setup-child", w.name, "-base-url", baseURL, "-seed", strconv.FormatInt(e.seed, 10)}
	if e.traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p := &prepared{}
	if err := json.Unmarshal(out, p); err != nil {
		return nil, fmt.Errorf("set-up output: %w", err)
	}
	return p, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		root      = fs.String("root", "..", "the checkout to measure (run.sh passes it)")
		name      = fs.String("workload", "", "run this one workload and print its result line; empty runs all of them -runs times")
		seed      = fs.Int64("seed", 11, "corpus and generator seed")
		seconds   = fs.Float64("seconds", 8, "how long one run measures")
		trace     = fs.Int("trace", 0, "1 = the traced per-layer pass instead of the end-to-end run")
		runs      = fs.Int("runs", 10, "runs per workload when no -workload is given; run i uses seed+i")
		outPath   = fs.String("o", "", "where the set of runs is written (default bench/out/result.json)")
		compare   = fs.Bool("compare", false, "compare two result files given as arguments; exit 1 on a regression")
		cpu       = fs.Int("cpu", 0, "GOMAXPROCS for the harness and every process it starts (0 = leave as is)")
		pushChild = fs.String("push-child", "", "internal: host the push measurement over this corpus directory")
		setupFor  = fs.String("setup-child", "", "internal: do the set-up of this workload once and print it")
		baseURL   = fs.String("base-url", "", "internal: where the harness serves the corpus over HTTP")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := limitCPUs(*cpu); err != nil {
		return err
	}
	if *pushChild != "" {
		return runPushChild(*pushChild, *seconds)
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare wants two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(abs, "cmd", "bgpreader")); err != nil {
		return fmt.Errorf("-root %s is not a checkout of the repository: %w", abs, err)
	}
	if *setupFor != "" {
		w := workloadByName(*setupFor)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *setupFor)
		}
		p, err := newEnv(abs, w, *seed, *seconds, *trace != 0).prepare(w, *baseURL)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(p)
	}
	if *name == "" {
		if *outPath == "" {
			*outPath = filepath.Join(abs, "bench", "out", "result.json")
		}
		return runSuite(abs, *seed, *seconds, *runs, *trace != 0, *outPath)
	}
	w := workloadByName(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	res, err := runOne(abs, w, *seed, *seconds, *trace != 0)
	if err != nil {
		return err
	}
	return res.printLine(os.Stdout)
}

// limitCPUs applies -cpu and refuses more processors than the host
// has, asked for by flag or by environment: such a run measures the
// scheduler.
func limitCPUs(n int) error {
	if env, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && env > runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS=%d is above the %d processors of this host", env, runtime.NumCPU())
	}
	if n == 0 {
		return nil
	}
	if n < 0 || n > runtime.NumCPU() {
		return fmt.Errorf("-cpu %d: this host has %d processors", n, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(n)
	return os.Setenv("GOMAXPROCS", strconv.Itoa(n)) // inherited by bgpreader, go build and the push child
}

func newEnv(root string, w *workload, seed int64, seconds float64, traced bool) *env {
	return &env{root: root, work: filepath.Join(root, ".bench_build", "work", w.name), seed: seed, seconds: seconds, traced: traced}
}

// runOne runs one workload once, prints every metric by name on
// standard error and leaves the result in bench/out.
func runOne(root string, w *workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	e := newEnv(root, w, seed, seconds, traced)
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	var res *runResult
	var err error
	if traced {
		res, err = e.runTraced(w)
	} else {
		res, err = w.run(e, w)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Workload, res.Seed, res.Trace = w.name, seed, traced
	res.Correct = res.Failed == 0
	res.Host = recordHost(root)
	res.report(os.Stderr)
	suffix := ""
	if traced {
		suffix = ".trace"
	}
	return res, writeJSON(filepath.Join(root, "bench", "out", w.name+suffix+".json"), res)
}

// defs returns the metric definitions a result of this kind must carry.
func (r *runResult) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// report prints every metric by name with its unit.
func (r *runResult) report(w *os.File) {
	fmt.Fprintf(w, "== %s seed=%d trace=%v: attempted %d, failed %d, correct %v\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Correct)
	for _, d := range r.defs() {
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	extra := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(w, "  (%s) %.6g\n", k, r.Extra[k])
	}
}

// printLine writes the result line of the benchmark contract.
func (r *runResult) printLine(w *os.File) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range r.defs() {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = value{v, d.Unit}
	}
	return json.NewEncoder(w).Encode(line)
}
