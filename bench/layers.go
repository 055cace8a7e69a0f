package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/bgp"
	"github.com/bgpstream-go/bgpstream/internal/bgpdump"
	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/merge"
	"github.com/bgpstream-go/bgpstream/internal/mrt"
	"github.com/bgpstream-go/bgpstream/internal/resilience"
	"github.com/bgpstream-go/bgpstream/internal/rislive"
)

// perLayer are the metrics of the traced pass, named layer.metric with
// the package names as layers. Each is measured single-threaded over
// the corpus part of the workload, by timing calls into the layer's
// public functions from this file. They have no bounds: they say where
// an end-to-end change came from, they do not gate one.
var perLayer = []metricDef{
	{Name: "resilience.fetch_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "resilience.fetch_open_us_per_file", Unit: "us", Better: "lower"},
	{Name: "gunzip.inflate_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "gunzip.inflate_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "mrt.frame_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "mrt.open_us_per_file", Unit: "us", Better: "lower"},
	{Name: "mrt.bytes_alloc_per_file", Unit: "B", Better: "lower"},
	{Name: "bgp.decode_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "bgp.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.stream.seq_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "core.stream.par_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "core.stream.allocs_per_elem", Unit: "count", Better: "lower"},
	{Name: "core.stream.bytes_per_elem", Unit: "B", Better: "lower"},
	{Name: "core.stream.elems_self_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "merge.pop_ns_per_record_k2", Unit: "ns", Better: "lower"},
	{Name: "merge.pop_ns_per_record_kmax", Unit: "ns", Better: "lower"},
	{Name: "core.filter.match_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "core.filter.pass_share", Unit: "ratio", Better: "lower"},
	{Name: "bgpdump.format_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "bgpdump.format_bytes_per_elem", Unit: "B", Better: "lower"},
	{Name: "bgpreader.output_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "bgpstream.open.first_elem_ms", Unit: "ms", Better: "lower"},
	{Name: "rislive.codec.encode_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "rislive.codec.decode_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "rislive.server.publish_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "rislive.server.steady_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "rislive.server.flood_drop_share", Unit: "ratio", Better: "lower"},
	{Name: "rislive.server.publish_write_p99_us", Unit: "us", Better: "lower"},
	{Name: "rislive.client.dispatch_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "reconcile.layer_sum_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "reconcile.inproc_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "reconcile.attributed_share", Unit: "ratio", Better: "higher"},
	{Name: "reconcile.process_residual_share", Unit: "ratio", Better: "lower"},
	{Name: "reconcile.trace_overhead_share", Unit: "ratio", Better: "lower"},
}

// timedPasses is how many timed passes share a traced run's --seconds.
const timedPasses = 15

// layerPass is one traced run: the corpus part in memory, the tracer,
// and the metrics so far.
type layerPass struct {
	e     *env
	p     *prepared
	tr    *tracer
	root  int           // the run's root span
	slice time.Duration // the share of --seconds one timed pass may use
	res   *runResult

	filters core.Filters // the workload's own filter, for the reconciliation
	files   []partFile   // the part's files of the part's dump type
	bytesIn int64        // their compressed size
	elems   float64      // elems in them (what every per-elem metric divides by)

	// The first elems of the part, cloned, with the records they came
	// from: what the codec passes and the push harness run over.
	sampleRecs []*core.Record
	sampleEls  []core.Elem
}

type partFile struct {
	meta archive.DumpMeta
	url  string // where the harness's archive.Server serves it
	data []byte // the compressed file
}

// runTraced is the per-layer pass of one workload (--trace 1). Metrics
// come from passes that each time one layer alone; the reconciliation
// at the end checks that they add up to the in-process end-to-end loop.
func (e *env) runTraced(w *workload) (*runResult, error) {
	baseURL, stop, err := serveArchive(e.corpusDir())
	if err != nil {
		return nil, err
	}
	defer stop()
	p, err := e.setupChild(w, baseURL)
	if err != nil {
		return nil, err
	}
	lp := &layerPass{
		e: e, p: p, tr: newTracer(), res: newRunResult(p.Manifest),
		slice: time.Duration(e.seconds * float64(time.Second) / timedPasses),
		elems: float64(p.Manifest.Elems),
	}
	if lp.filters, err = core.ParseFilterString(p.Filter); err != nil {
		return nil, err
	}
	if err := lp.load(baseURL, w.part.DumpType); err != nil {
		return nil, err
	}
	lp.root = lp.tr.begin("trace:"+w.name, 0)
	// The passes whose cost depends on the garbage collector — the
	// stream, the in-process loops, formatting — run first and hold next
	// to nothing, as bgpreader does; the passes that need the part's
	// records in memory come last.
	steps := []func() error{
		lp.fetch, lp.inflateAndFrame, lp.stream, lp.loops, lp.elemLayers,
		lp.codec, lp.push, lp.recordLayers, lp.firstElem, lp.residual,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if share := lp.attribute(); share < 0.85 || share > 1.15 {
		// This host has phases in which everything runs 20-40 % slower;
		// one that covers some passes and not others breaks the sum. It
		// rarely strikes twice: time the passes of the sum once more.
		fmt.Fprintf(os.Stderr, "attributed_share %.3f: timing the stream, the loops and the elem layers again\n", share)
		for _, step := range []func() error{lp.stream, lp.loops, lp.elemLayers} {
			if err := step(); err != nil {
				return nil, err
			}
		}
		lp.attribute()
	}
	lp.tr.end(lp.root)
	tracePath := filepath.Join(e.root, "bench", "out", "trace.json")
	if err := lp.tr.write(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", len(lp.tr.spans), tracePath)
	if share := lp.res.Metrics["reconcile.attributed_share"]; share < 0.85 || share > 1.15 {
		return nil, fmt.Errorf("the layers account for %.0f %% of the in-process loop; the pass is only valid between 85 %% and 115 %%", 100*share)
	}
	return lp.res, nil
}

func (lp *layerPass) set(name string, v float64) { lp.res.Metrics[name] = v }

// timed runs pass at least once, then again until the pass's share of
// the run's time is used, each run under a span of its own, and returns
// the median duration. What a pass measures besides its own length it
// appends to slices it owns, one value per run.
func (lp *layerPass) timed(name string, pass func(parent int) error) (time.Duration, error) {
	var took []float64
	for start := time.Now(); len(took) == 0 || time.Since(start) < lp.slice; {
		runtime.GC() // every run starts from the same heap, not from its predecessor's garbage
		id := lp.tr.begin(name, lp.root)
		err := pass(id)
		took = append(took, float64(lp.tr.end(id)))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return time.Duration(median(took)), nil
}

// load reads the part's files into memory.
func (lp *layerPass) load(baseURL string, t core.DumpType) error {
	dir := lp.e.corpusDir()
	metas, err := (&archive.Store{Root: dir}).Scan()
	if err != nil {
		return err
	}
	for _, m := range metas {
		if m.Type != t {
			continue
		}
		data, err := os.ReadFile(m.URL)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, m.URL)
		if err != nil {
			return err
		}
		lp.files = append(lp.files, partFile{meta: m, url: baseURL + "/" + filepath.ToSlash(rel), data: data})
		lp.bytesIn += int64(len(data))
	}
	if len(lp.files) == 0 {
		return errors.New("the corpus part has no files")
	}
	return nil
}

// fetch: layer resilience. Fetcher.Open then io.Copy to io.Discard,
// file by file, against the harness's archive.Server.
func (lp *layerPass) fetch() error {
	f := &resilience.Fetcher{Breakers: resilience.NewBreakerSet(0, 0)}
	var opens []float64
	total, err := lp.timed("resilience", func(parent int) error {
		var open time.Duration
		for _, pf := range lp.files {
			id := lp.tr.begin("resilience.Fetcher.Open", parent)
			rc, err := f.Open(context.Background(), pf.url)
			open += lp.tr.end(id)
			if err != nil {
				return err
			}
			id = lp.tr.begin("resilience.body", parent)
			n, err := io.Copy(io.Discard, rc)
			rc.Close()
			lp.tr.end(id)
			if err != nil || n != int64(len(pf.data)) {
				return fmt.Errorf("%s: read %d of %d bytes: %v", pf.url, n, len(pf.data), err)
			}
		}
		opens = append(opens, float64(open))
		return nil
	})
	if err != nil {
		return err
	}
	lp.set("resilience.fetch_mb_per_s", float64(lp.bytesIn)/1e6/total.Seconds())
	lp.set("resilience.fetch_open_us_per_file", median(opens)/1e3/float64(len(lp.files)))
	st := f.Stats()
	lp.res.Extra["resilience.retries"] = float64(st.Retries)
	lp.res.Extra["resilience.resumes"] = float64(st.Resumes)
	return nil
}

// inflateAndFrame: layers gunzip (the stdlib floor) and mrt. Both read
// the same in-memory compressed bytes, so that the mrt pass minus the
// gunzip pass is the framing alone.
func (lp *layerPass) inflateAndFrame() error {
	var inflated int64
	gunzip, err := lp.timed("gunzip", func(parent int) error {
		inflated = 0
		for _, pf := range lp.files {
			id := lp.tr.begin("gzip.Reader", parent)
			zr, err := gzip.NewReader(bytes.NewReader(pf.data))
			if err != nil {
				return err
			}
			n, err := io.Copy(io.Discard, zr)
			lp.tr.end(id)
			if err != nil {
				return err
			}
			inflated += n
		}
		return nil
	})
	if err != nil {
		return err
	}
	lp.set("gunzip.inflate_mb_per_s", float64(inflated)/1e6/gunzip.Seconds())
	lp.set("gunzip.inflate_ns_per_elem", float64(gunzip)/lp.elems)

	var opens []float64
	records := 0
	frame, err := lp.timed("mrt", func(parent int) error {
		var open time.Duration
		records = 0
		for _, pf := range lp.files {
			id := lp.tr.begin("mrt.NewReader", parent)
			r, err := mrt.NewReader(bytes.NewReader(pf.data))
			open += lp.tr.end(id)
			if err != nil {
				return err
			}
			r.StableBodies(0) // as the stream layer reads dumps
			id = lp.tr.begin("mrt.Reader.Next", parent)
			for {
				_, err := r.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return err
				}
				records++
			}
			lp.tr.end(id)
			r.Close()
		}
		opens = append(opens, float64(open))
		return nil
	})
	if err != nil {
		return err
	}
	lp.res.Extra["mrt.records"] = float64(records)
	lp.res.Extra["mrt.pass_ns_per_elem"] = float64(frame) / lp.elems
	lp.set("mrt.frame_ns_per_record", float64(frame-gunzip)/float64(records))
	lp.set("mrt.open_us_per_file", median(opens)/1e3/float64(len(lp.files)))

	// What opening a file allocates, counted apart from the timed runs:
	// reading MemStats stops the world.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, pf := range lp.files {
		r, err := mrt.NewReader(bytes.NewReader(pf.data))
		if err != nil {
			return err
		}
		r.Close()
	}
	runtime.ReadMemStats(&after)
	lp.set("mrt.bytes_alloc_per_file", float64(after.TotalAlloc-before.TotalAlloc)/float64(len(lp.files)))
	return nil
}

// stream: layer core.stream. core.NewStream over the directory source,
// NextElem to EOF, with one decode worker and with the default number.
func (lp *layerPass) stream() error {
	typed := core.Filters{DumpTypes: []core.DumpType{lp.p.Manifest.Params.DumpType}}
	var mallocs, alloc []float64
	pass := func(workers int) func(int) error {
		return func(int) error {
			s := core.NewStream(context.Background(), &core.Directory{Dir: lp.e.corpusDir()}, typed)
			defer s.Close()
			s.SetDecodeWorkers(workers)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n := 0
			for {
				_, _, err := s.NextElem()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return err
				}
				n++
			}
			runtime.ReadMemStats(&after)
			mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs))
			alloc = append(alloc, float64(after.TotalAlloc-before.TotalAlloc))
			if float64(n) != lp.elems {
				return fmt.Errorf("%d elems, the manifest has %.0f", n, lp.elems)
			}
			return nil
		}
	}
	seq, err := lp.timed("core.stream.seq", pass(1))
	if err != nil {
		return err
	}
	lp.set("core.stream.seq_ns_per_elem", float64(seq)/lp.elems)
	lp.set("core.stream.allocs_per_elem", median(mallocs)/lp.elems)
	lp.set("core.stream.bytes_per_elem", median(alloc)/lp.elems)
	par, err := lp.timed("core.stream.par", pass(0))
	if err != nil {
		return err
	}
	lp.set("core.stream.par_ns_per_elem", float64(par)/lp.elems)
	return nil
}

// traceEvery is the sampling stride of the traced in-process loop: one
// elem in this many gets a span per call. A prime, so that the samples
// do not fall in step with the records.
const traceEvery = 61

// loops times the loop the layers are layers of — NextElem, FormatElem,
// write — in this process, with the workload's own filter: untraced and
// traced on one decode worker (the layers are measured on one
// goroutine), and untraced on the default number (what the binary does).
func (lp *layerPass) loops() error {
	loop := func(workers int, traced bool) func(int) error {
		return func(parent int) error {
			s := core.NewStream(context.Background(), &core.Directory{Dir: lp.e.corpusDir()}, lp.filters)
			defer s.Close()
			s.SetDecodeWorkers(workers)
			out := bufio.NewWriterSize(io.Discard, 1<<20) // bgpreader's stdout buffer
			for i := 0; ; i++ {
				sample := traced && i%traceEvery == 0
				id := 0
				if sample {
					id = lp.tr.begin("core.Stream.NextElem", parent)
				}
				rec, el, err := s.NextElem()
				if sample {
					lp.tr.end(id)
				}
				if errors.Is(err, io.EOF) {
					return out.Flush()
				}
				if err != nil {
					return err
				}
				if sample {
					id = lp.tr.begin("bgpdump.FormatElem", parent)
				}
				line := bgpdump.FormatElem(rec, el)
				if sample {
					lp.tr.end(id)
					id = lp.tr.begin("bgpreader.output", parent)
				}
				fmt.Fprintln(out, line)
				if sample {
					lp.tr.end(id)
				}
			}
		}
	}
	inproc, err := lp.timed("inproc", loop(1, false))
	if err != nil {
		return err
	}
	traced, err := lp.timed("inproc.traced", loop(1, true))
	if err != nil {
		return err
	}
	par, err := lp.timed("inproc.par", loop(0, false))
	if err != nil {
		return err
	}
	lp.set("reconcile.inproc_ns_per_elem", float64(inproc)/lp.elems)
	lp.set("reconcile.trace_overhead_share", float64(traced)/float64(inproc)-1)
	lp.res.Extra["reconcile.inproc_par_ns_per_elem"] = float64(par) / lp.elems
	return nil
}

// elemChunk is how many decoded elems the elem layers hold at a time.
const elemChunk = 1 << 16

// elemLayers: layers core.filter and bgpdump, and the output loop of
// cmd/bgpreader. The part is decoded by the sequential pipeline a chunk
// at a time; over each chunk run, one after the other and each under
// its own span, MatchElem, FormatElem, and fmt.Fprintln into a 1 MiB
// buffer as bgpreader writes. The filter is the shape pull_filtered_dir
// uses: one prefix passing 1-2 % and an elem type.
func (lp *layerPass) elemLayers() error {
	pfx, err := netip.ParsePrefix(lp.p.Prefix)
	if err != nil {
		return err
	}
	cf := core.CompileFilters(core.Filters{
		Prefixes:  []core.PrefixFilter{{Prefix: pfx, Match: core.MatchMoreSpecific}},
		ElemTypes: []core.ElemType{core.ElemAnnouncement, core.ElemRIB},
	})
	typed := core.Filters{DumpTypes: []core.DumpType{lp.p.Manifest.Params.DumpType}}
	var match, format, output []float64
	passed, outBytes := 0, 0
	recs := make([]*core.Record, 0, elemChunk)
	els := make([]core.Elem, 0, elemChunk)
	lines := make([]string, 0, elemChunk)
	// Three timed passes share one decode of the part, so three slices.
	for start := time.Now(); len(match) == 0 || time.Since(start) < 3*lp.slice; {
		runtime.GC()
		var dMatch, dFormat, dOutput time.Duration
		passed, outBytes = 0, 0
		rep := lp.tr.begin("elems", lp.root)
		out := bufio.NewWriterSize(io.Discard, 1<<20)
		flush := func() {
			id := lp.tr.begin("core.CompiledFilters.MatchElem", rep)
			for i := range els {
				if cf.MatchElem(&els[i]) {
					passed++
				}
			}
			dMatch += lp.tr.end(id)
			id = lp.tr.begin("bgpdump.FormatElem", rep)
			for i := range els {
				lines = append(lines, bgpdump.FormatElem(recs[i], &els[i]))
			}
			dFormat += lp.tr.end(id)
			id = lp.tr.begin("bgpreader.output", rep)
			for _, line := range lines {
				fmt.Fprintln(out, line)
				outBytes += len(line) + 1
			}
			dOutput += lp.tr.end(id)
			if lp.sampleEls == nil {
				lp.sampleRecs = append([]*core.Record(nil), recs...)
				lp.sampleEls = append([]core.Elem(nil), els...)
			}
			recs, els, lines = recs[:0], els[:0], lines[:0]
		}
		n, err := scanElems(lp.e.corpusDir(), typed, func(rec *core.Record, e *core.Elem) {
			recs = append(recs, rec)
			els = append(els, e.Clone())
			if len(els) == elemChunk {
				flush()
			}
		})
		if err != nil {
			return err
		}
		flush()
		lp.tr.end(rep)
		if float64(n) != lp.elems {
			return fmt.Errorf("%d elems, the manifest has %.0f", n, lp.elems)
		}
		match = append(match, float64(dMatch))
		format = append(format, float64(dFormat))
		output = append(output, float64(dOutput))
	}
	lp.set("core.filter.match_ns_per_elem", median(match)/lp.elems)
	lp.set("core.filter.pass_share", float64(passed)/lp.elems)
	lp.set("bgpdump.format_ns_per_elem", median(format)/lp.elems)
	lp.set("bgpdump.format_bytes_per_elem", float64(outBytes)/lp.elems)
	lp.set("bgpreader.output_ns_per_elem", median(output)/lp.elems)
	return nil
}

// codecSample bounds the elems the JSON codec passes run over: JSON is
// slow enough that the whole part would eat the run.
const codecSample = elemChunk

// codec: layer rislive.codec. Encode is what Server.Publish does once
// per elem, decode what Client does once per message.
func (lp *layerPass) codec() error {
	n := min(codecSample, len(lp.sampleEls))
	wire := make([][]byte, n)
	enc, err := lp.timed("rislive.codec.encode", func(int) error {
		for i := 0; i < n; i++ {
			data, err := json.Marshal(rislive.Message{
				Type: rislive.TypeMessage,
				Data: rislive.EncodeElem(lp.sampleRecs[i].Project, lp.sampleRecs[i].Collector, &lp.sampleEls[i]),
			})
			if err != nil {
				return err
			}
			wire[i] = data
		}
		return nil
	})
	if err != nil {
		return err
	}
	dec, err := lp.timed("rislive.codec.decode", func(int) error {
		for _, data := range wire {
			var m rislive.Message
			if err := json.Unmarshal(data, &m); err != nil {
				return err
			}
			if _, err := m.Data.Elem(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lp.set("rislive.codec.encode_ns_per_elem", float64(enc)/float64(n))
	lp.set("rislive.codec.decode_ns_per_elem", float64(dec)/float64(n))
	return nil
}

// push: layers rislive.server and rislive.client, the push harness in
// this process for two timed passes' worth of time.
func (lp *layerPass) push() error {
	cfg := pushConfig{rate: 20000, steady: lp.slice * 3 / 2, flood: lp.slice / 2}
	elems := make([]taggedElem, len(lp.sampleEls))
	hist := &prefixHistogram{}
	for i := range elems {
		elems[i] = taggedElem{lp.sampleRecs[i].Project, lp.sampleRecs[i].Collector, lp.sampleEls[i]}
		hist.add(&lp.sampleEls[i], true)
	}
	id := lp.tr.begin("rislive", lp.root)
	pr, err := runPush(elems, hist, cfg, lp.tr, id)
	lp.tr.end(id)
	if err != nil {
		return err
	}
	lp.res.Attempted += pr.SteadyExpected
	lp.res.Failed += pr.SteadyExpected - pr.SteadyInOrder
	lp.set("rislive.server.publish_ns_per_call", pr.PublishNsPerCall)
	lp.set("rislive.server.steady_latency_p99_ms", pr.LatencyP99Ms)
	lp.set("rislive.server.flood_drop_share", pr.FloodDropShare)
	lp.set("rislive.server.publish_write_p99_us", pr.PublishWriteP99)
	lp.set("rislive.client.dispatch_ns_per_msg", pr.DispatchNsPerMsg)
	lp.res.Extra["rislive.steady_latency_p50_ms"] = pr.LatencyP50Ms
	lp.res.Extra["rislive.server_published"] = float64(pr.ServerPublished)
	lp.res.Extra["rislive.server_dropped"] = float64(pr.ServerDropped)
	lp.res.Extra["rislive.client_reconnects"] = float64(pr.Reconnects)
	lp.res.Extra["rislive.client_gaps"] = float64(pr.Gaps)
	return nil
}

// recordLayers: layers bgp and merge, over the part's records framed
// beforehand and held in memory.
func (lp *layerPass) recordLayers() error {
	records := make([][]*core.Record, len(lp.files))
	for i, pf := range lp.files {
		r, err := mrt.NewReader(bytes.NewReader(pf.data))
		if err != nil {
			return err
		}
		r.StableBodies(0)
		for {
			rec, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			records[i] = append(records[i], &core.Record{
				Project: pf.meta.Project, Collector: pf.meta.Collector,
				DumpType: pf.meta.Type, DumpTime: pf.meta.Time,
				Status: core.StatusValid, MRT: rec,
			})
		}
		r.Close()
	}
	if err := lp.decode(records); err != nil {
		return err
	}
	return lp.mergePop(records)
}

// decode: layer bgp. The bodies are framed before the clock starts: an
// UPDATE message per BGP4MP record of the updates part, the attribute
// block of every RIB entry of the rib part.
func (lp *layerPass) decode(records [][]*core.Record) error {
	type op struct {
		data   []byte
		asSize int
		update bool
	}
	var ops []op
	var msg mrt.BGP4MPMessage
	var rib mrt.RIB
	for _, file := range records {
		for _, rec := range file {
			h := rec.MRT.Header
			switch {
			case (h.Type == mrt.TypeBGP4MP || h.Type == mrt.TypeBGP4MPET) &&
				(h.Subtype == mrt.SubtypeMessage || h.Subtype == mrt.SubtypeMessageAS4):
				if err := mrt.DecodeBGP4MPMessageTo(&msg, rec.MRT.Body, h.Subtype); err != nil {
					return err
				}
				if mt, err := msg.MessageType(); err != nil || mt != bgp.MsgUpdate {
					continue
				}
				asSize := 2
				if msg.AS4 {
					asSize = 4
				}
				ops = append(ops, op{msg.Data, asSize, true})
			case h.Type == mrt.TypeTableDumpV2 && h.Subtype != mrt.SubtypePeerIndexTable:
				afi := uint16(bgp.AFIIPv4)
				if h.Subtype == mrt.SubtypeRIBIPv6Unicast || h.Subtype == mrt.SubtypeRIBIPv6Multicast {
					afi = bgp.AFIIPv6
				}
				if err := mrt.DecodeRIBTo(&rib, rec.MRT.Body, afi); err != nil {
					return err
				}
				for _, ent := range rib.Entries {
					ops = append(ops, op{ent.Attrs, 4, false})
				}
			}
		}
	}
	if len(ops) == 0 {
		return errors.New("bgp: nothing to decode in this part")
	}
	const batch = 8192
	var mallocs []float64
	took, err := lp.timed("bgp", func(parent int) error {
		var dec bgp.Decoder
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for lo := 0; lo < len(ops); lo += batch {
			id := lp.tr.begin("bgp.Decoder", parent)
			for _, o := range ops[lo:min(lo+batch, len(ops))] {
				var err error
				if o.update {
					_, err = dec.DecodeUpdateMessage(o.data, o.asSize)
				} else {
					_, err = dec.DecodeAttributes(o.data, o.asSize)
				}
				if err != nil {
					return err
				}
			}
			lp.tr.end(id)
		}
		runtime.ReadMemStats(&after)
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs))
		return nil
	})
	if err != nil {
		return err
	}
	lp.res.Extra["bgp.ops"] = float64(len(ops))
	lp.res.Extra["bgp.pass_ns_per_elem"] = float64(took) / lp.elems
	lp.set("bgp.decode_ns_per_op", float64(took)/float64(len(ops)))
	lp.set("bgp.allocs_per_op", median(mallocs)/float64(len(ops)))
	return nil
}

// mergePop: layer merge. merge.NewMerger over SliceSources of the
// records the mrt pass framed, at the width of the part's widest
// overlap partition (one source per file) and at width two (the same
// records dealt alternately, so both widths pop the same number).
func (lp *layerPass) mergePop(records [][]*core.Record) error {
	less := func(a, b *core.Record) bool {
		ha, hb := a.MRT.Header, b.MRT.Header
		if ha.Timestamp != hb.Timestamp {
			return ha.Timestamp < hb.Timestamp
		}
		return ha.Microseconds < hb.Microseconds
	}
	total := 0
	for _, f := range records {
		total += len(f)
	}
	merged := make([]*core.Record, 0, total)
	pop := func(name string, groups [][]*core.Record, keep bool) (time.Duration, error) {
		return lp.timed(name, func(int) error {
			sources := make([]merge.Source[*core.Record], len(groups))
			for i, g := range groups {
				sources[i] = &merge.SliceSource[*core.Record]{Items: g}
			}
			m := merge.NewMerger(less, sources...)
			merged = merged[:0]
			for {
				rec, err := m.Next()
				if errors.Is(err, io.EOF) {
					return nil
				}
				if err != nil {
					return err
				}
				if keep {
					merged = append(merged, rec)
				}
			}
		})
	}
	kmax, err := pop("merge.kmax", records, true)
	if err != nil {
		return err
	}
	two := make([][]*core.Record, 2)
	for i, rec := range merged {
		two[i%2] = append(two[i%2], rec)
	}
	k2, err := pop("merge.k2", two, false)
	if err != nil {
		return err
	}
	lp.res.Extra["merge.kmax"] = float64(len(records))
	lp.res.Extra["merge.pass_ns_per_elem"] = float64(kmax) / lp.elems
	lp.set("merge.pop_ns_per_record_kmax", float64(kmax)/float64(total))
	lp.set("merge.pop_ns_per_record_k2", float64(k2)/float64(total))
	return nil
}

// firstElem: layer bgpstream.Open, through the binary.
func (lp *layerPass) firstElem() error {
	ms := lp.e.firstElem(lp.p, lp.res)
	if len(ms) == 0 {
		return errors.New("no first-elem probe succeeded")
	}
	lp.set("bgpstream.open.first_elem_ms", median(ms))
	return nil
}

// attribute adds the layers up and compares the sum with the loop they
// are layers of; it returns attributed_share.
func (lp *layerPass) attribute() float64 {
	m := lp.res.Metrics
	lp.set("core.stream.elems_self_ns_per_elem", m["core.stream.seq_ns_per_elem"]-
		lp.res.Extra["mrt.pass_ns_per_elem"]-lp.res.Extra["bgp.pass_ns_per_elem"]-lp.res.Extra["merge.pass_ns_per_elem"])

	// The layers of this workload's loop: the stream pass (inflate,
	// framing, decode, elems and merge are its parts), the filter if the
	// workload has one, and formatting and output for the share of
	// elems that pass.
	pass := float64(lp.p.Ref.Lines) / lp.elems
	sum := m["core.stream.seq_ns_per_elem"] + pass*(m["bgpdump.format_ns_per_elem"]+m["bgpreader.output_ns_per_elem"])
	if len(lp.filters.Prefixes) > 0 {
		sum += m["core.filter.match_ns_per_elem"]
	}
	lp.set("reconcile.layer_sum_ns_per_elem", sum)
	lp.set("reconcile.attributed_share", sum/m["reconcile.inproc_ns_per_elem"])
	lp.res.Extra["reconcile.pass_share"] = pass
	// The binary against the in-process loop with the same parallelism:
	// what is left is what the process spends outside the library loop.
	lp.set("reconcile.process_residual_share",
		1-lp.res.Extra["reconcile.inproc_par_ns_per_elem"]/lp.res.Extra["reconcile.binary_ns_per_elem"])
	return m["reconcile.attributed_share"]
}

// residual times the binary, exec to exit, per elem read.
func (lp *layerPass) residual() error {
	var walls []float64
	for i := 0; i < minInvocations; i++ {
		inv := lp.p.invoke(lp.p.Args, checkCount, "", 60*time.Second)
		lp.res.count(inv.failed)
		if inv.failed != "" {
			return fmt.Errorf("bgpreader: %s", inv.failed)
		}
		walls = append(walls, float64(inv.wall))
	}
	lp.res.Extra["reconcile.binary_ns_per_elem"] = median(walls) / lp.elems
	return nil
}
