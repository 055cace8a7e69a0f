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
// interleave. The parallel pipeline gives every dump file a decode
// worker that prefetches records into a bounded readahead queue; the
// number of workers decoding at any instant is capped by a shared
// semaphore (Stream.SetDecodeWorkers, default GOMAXPROCS), so the
// record the merge heap pops next has usually been decoded ahead of
// the pop. The merge still pulls in strict §3.3.4 order — when a queue
// runs dry it blocks on that file's worker (counted as a prefetch
// stall).
//
// Workers start in the sweep merge's join order: when the merge first
// pulls file i, the workers of files i through i+lookahead start, so
// open files and decoded-ahead memory scale with the files live at
// one instant plus the lookahead, not with the batch.
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
	// bench corpus.
	defaultReadahead = prefetchBatchSize
)

// lookahead is how many files past the one the merge joins have their
// workers started: enough to keep every decode slot busy while the
// live files' workers park on full queues, plus two so that a file's
// first batch is usually decoded when the frontier reaches it.
func lookahead(workers int) int { return workers + 2 }

// prefetchBatch is one readahead-queue entry: a run of consecutive
// records from one dump file, or the terminal error.
type prefetchBatch struct {
	recs []*Record
	err  error // non-EOF terminal error, delivered after recs
}

// prefetchSource adapts one dump file to merge.Source[*Record]:
// a decode worker fills the bounded readahead channel, the merge-side
// Next drains it batch by batch.
type prefetchSource struct {
	inner *dumpSource
	p     *prefetchPipeline
	idx   int // join order within the pipeline
	ch    chan prefetchBatch

	cur prefetchBatch
	i   int
}

// run is the decode worker: open, gunzip, MRT-parse and time-filter
// records batch by batch, holding a semaphore slot only while
// decoding, never while blocked on the readahead queue.
func (s *prefetchSource) run() {
	defer func() {
		close(s.ch)
		select {
		case <-s.p.halt:
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
		// preempted, so the merge, which needs the first batch of every
		// file joining it, stalls behind the few files that happened to
		// start.
		runtime.Gosched()
		select {
		case s.p.sem <- struct{}{}:
		case <-s.p.halt:
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
		<-s.p.sem
		if len(recs) > 0 {
			metPrefetchReadahead.Add(int64(len(recs)))
			select {
			case s.ch <- prefetchBatch{recs: recs}:
			case <-s.p.halt:
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
				case <-s.p.halt:
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
		// A no-op after this source's first pull.
		s.p.launchThrough(s.idx + lookahead(cap(s.p.sem)))
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
// prefetch source per dump file in join order, all bounded by one
// decode semaphore (sem, one slot per worker). Only the consumer
// goroutine calls source, launchThrough and stop.
type prefetchPipeline struct {
	sem       chan struct{}
	halt      chan struct{} // closed by stop: abandon work
	readahead int
	all       []*prefetchSource
	launched  int // all[:launched] have a worker
	once      sync.Once
}

// source wraps ds, the next dump file in join order, for the merge.
func (p *prefetchPipeline) source(ds *dumpSource) merge.Source[*Record] {
	depth := max(p.readahead, defaultReadahead) / prefetchBatchSize
	src := &prefetchSource{inner: ds, p: p, idx: len(p.all), ch: make(chan prefetchBatch, depth)}
	p.all = append(p.all, src)
	return src
}

// launchThrough starts the decode workers of every source up to index
// i that has none yet, in join order.
func (p *prefetchPipeline) launchThrough(i int) {
	for ; p.launched <= i && p.launched < len(p.all); p.launched++ {
		go p.all[p.launched].run()
	}
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
