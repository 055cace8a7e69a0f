package core

import (
	"errors"
	"io"
	"runtime"
	"sync"

	"github.com/bgpstream-go/bgpstream/internal/merge"
)

// This file implements the parallel ingest pipeline of the historical
// read path. The sequential pipeline runs everything feeding the
// §3.3.4 merge heap — file open, gzip decompression, MRT parsing,
// time filtering — inline on the consumer goroutine, so a stream over
// N overlapping dumps uses one core no matter how many files
// interleave. The parallel pipeline gives every dump file in an
// overlap partition a decode worker that prefetches records into a
// bounded readahead queue; the number of workers decoding at any
// instant is capped by a shared semaphore (Stream.SetDecodeWorkers,
// default GOMAXPROCS), so the record the merge heap pops next has
// usually been decoded ahead of the pop. The merge still pulls in
// strict §3.3.4 order — when a queue runs dry it blocks on that
// file's worker (counted as a prefetch stall).
//
// Ordering stays byte-for-byte identical to the sequential pipeline:
// each worker preserves its file's record order, and the merge heap's
// pop order (including arrival-order tie-breaks) depends only on the
// per-source record sequences, not on decode timing.
//
// Deadlock freedom: a worker holds a semaphore slot only while
// decoding one bounded batch, never across a readahead-queue send. A
// full queue therefore blocks only its own worker — with no slot held
// — so the workers of every source the merge heap still needs can
// always make progress.

const (
	// prefetchBatchSize is the number of records a worker decodes per
	// semaphore slot acquisition, and the granularity of readahead
	// channel sends. Batching amortises channel synchronisation to
	// ~1/64 of a send per record.
	prefetchBatchSize = 64
	// defaultReadahead is the per-source readahead bound in records
	// when the stream does not configure one (Stream.SetReadahead):
	// one batch, a queue depth of 1. Each open dump file then holds at
	// most two decoded batches ahead of the merge, one queued and one
	// in its worker's hand. A deeper default read no faster on the
	// bench corpus, and with 100+ files in one overlap partition it held
	// most of the window decoded in memory.
	defaultReadahead = prefetchBatchSize
)

// prefetchBatch is one readahead-queue entry: a run of consecutive
// records from one dump file, or the terminal error.
type prefetchBatch struct {
	recs []*Record
	err  error // non-EOF terminal error, delivered after recs
}

// prefetchGroup ties the prefetch sources of one overlap partition
// together: workers start as a group (the §3.3.4 merge primes every
// source of a partition before popping, so starting on first pull
// would serialise the first batch of each file), and share the
// stream-wide decode semaphore and stop channel.
//
// Groups are chained in partition order (next): when a group starts,
// it also launches the workers of the following partition, so group
// N+1's files are opened, gunzipped and decoded into their readahead
// queues while the merge heap is still draining group N. This removes
// the partition-boundary bubble — without it, every partition handoff
// idled all workers for a full cold start (open + first batch of each
// file). The lookahead is exactly one partition and non-cascading
// (launching N+1 does not launch N+2 until the merge reaches N+1), so
// open-file and queue memory stays bounded at two partitions, and the
// shared semaphore keeps total decode concurrency unchanged. Ordering
// is unaffected: the merge heap's pop order depends only on per-source
// record sequences, never on when decoding happened.
type prefetchGroup struct {
	sem     chan struct{} // stream-wide decode-concurrency bound
	stop    chan struct{} // closed by Stream.Close: abandon work
	members []*prefetchSource
	next    *prefetchGroup // following overlap partition, if any
	once    sync.Once
}

// start launches this group's workers and — cross-partition prefetch —
// the next group's, each exactly once.
func (g *prefetchGroup) start() {
	g.launch()
	if g.next != nil {
		g.next.launch()
	}
}

// launch starts every member's decode worker exactly once, without
// cascading into the next group.
func (g *prefetchGroup) launch() {
	g.once.Do(func() {
		for _, m := range g.members {
			go m.run()
		}
	})
}

// prefetchSource adapts one dump file to merge.Source[*Record]:
// a decode worker fills the bounded readahead channel, the merge-side
// Next drains it batch by batch.
type prefetchSource struct {
	inner *dumpSource
	g     *prefetchGroup
	ch    chan prefetchBatch

	cur prefetchBatch
	i   int
}

func newPrefetchSource(inner *dumpSource, g *prefetchGroup, readahead int) *prefetchSource {
	if readahead <= 0 {
		readahead = defaultReadahead
	}
	depth := readahead / prefetchBatchSize
	if depth < 1 {
		depth = 1
	}
	s := &prefetchSource{inner: inner, g: g, ch: make(chan prefetchBatch, depth)}
	g.members = append(g.members, s)
	return s
}

// run is the decode worker: open, gunzip, MRT-parse and time-filter
// records batch by batch, holding a semaphore slot only while
// decoding, never while blocked on the readahead queue.
func (s *prefetchSource) run() {
	defer func() {
		close(s.ch)
		select {
		case <-s.g.stop:
			// Abandoned: the merge will never pop what is queued.
			s.drain()
		default:
		}
	}()
	for {
		// Yield before competing for a slot. A worker that never blocks
		// (slot free, queue not full) otherwise keeps its processor:
		// workers launched after it and the consumer it just woke wait
		// in the run queue until it fills its readahead queue or is
		// preempted, so the merge, which needs every source's first
		// batch, stalls behind the few files that happened to start.
		runtime.Gosched()
		select {
		case s.g.sem <- struct{}{}:
		case <-s.g.stop:
			s.inner.close()
			return
		}
		metPrefetchBusy.Inc()
		recs := make([]*Record, 0, prefetchBatchSize)
		var err error
		for len(recs) < prefetchBatchSize {
			var rec *Record
			rec, err = s.inner.Next()
			if err != nil {
				break
			}
			recs = append(recs, rec)
		}
		metPrefetchBusy.Dec()
		<-s.g.sem
		if len(recs) > 0 {
			metPrefetchReadahead.Add(int64(len(recs)))
			select {
			case s.ch <- prefetchBatch{recs: recs}:
			case <-s.g.stop:
				metPrefetchReadahead.Add(-int64(len(recs)))
				s.inner.close()
				return
			}
		}
		if err != nil {
			// inner has already released its file. EOF is conveyed by
			// closing the channel; real errors are queued for the
			// consumer first.
			if !errors.Is(err, io.EOF) {
				select {
				case s.ch <- prefetchBatch{err: err}:
				case <-s.g.stop:
				}
			}
			return
		}
	}
}

// drain empties the readahead queue without blocking, retracting the
// dropped records from the readahead gauge. It runs only once the
// pipeline is stopped: by a worker that exits after the stop, and by
// the pipeline's stop func for workers that had already exited. A
// pull stream is never closed while a Next is in flight, so the merge
// is not receiving meanwhile, and each batch is retracted by whichever
// of the two drains receives it.
func (s *prefetchSource) drain() {
	for {
		select {
		case b, ok := <-s.ch:
			if !ok {
				return
			}
			metPrefetchReadahead.Add(-int64(len(b.recs)))
		default:
			return
		}
	}
}

// Next implements merge.Source[*Record], popping the next prefetched
// record and blocking only when the decode worker has not caught up.
func (s *prefetchSource) Next() (*Record, error) {
	s.g.start()
	for {
		if s.i < len(s.cur.recs) {
			r := s.cur.recs[s.i]
			s.cur.recs[s.i] = nil // release for GC once merged out
			s.i++
			return r, nil
		}
		if s.cur.err != nil {
			return nil, s.cur.err
		}
		if len(s.ch) == 0 {
			// The decode worker has not caught up; this receive blocks.
			metPrefetchStalls.Inc()
		}
		b, ok := <-s.ch
		if !ok {
			return nil, io.EOF
		}
		metPrefetchReadahead.Add(-int64(len(b.recs)))
		s.cur, s.i = b, 0
	}
}

// prefetchPipeline is the parallel pipeline of one batch: one
// prefetch source per dump file, grouped per overlap partition, all
// bounded by one decode semaphore (sem, one slot per worker).
type prefetchPipeline struct {
	sem       chan struct{}
	halt      chan struct{} // every group's stop channel
	readahead int
	groups    []*prefetchGroup
	all       []*prefetchSource
	once      sync.Once
}

// stop (idempotent) abandons every worker (see Stream.Close) and
// retracts every queued batch from the readahead gauge, including
// those of workers that already reached EOF and exited.
func (p *prefetchPipeline) stop() {
	p.once.Do(func() {
		close(p.halt)
		for _, m := range p.all {
			m.drain()
		}
	})
}

// source wraps ds, the next dump file of overlap partition part, for
// the merge. Partitions arrive in order, so a new part index opens the
// next group of the cross-partition lookahead chain.
func (p *prefetchPipeline) source(part int, ds *dumpSource) merge.Source[*Record] {
	if part == len(p.groups) {
		g := &prefetchGroup{sem: p.sem, stop: p.halt}
		if part > 0 {
			p.groups[part-1].next = g
		}
		p.groups = append(p.groups, g)
	}
	src := newPrefetchSource(ds, p.groups[part], p.readahead)
	p.all = append(p.all, src)
	return src
}
