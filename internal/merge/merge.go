// Package merge implements the record-sorting machinery of
// libBGPStream §3.3.4: a k-way merge over ordered record queues
// (container/heap based), which the stream runs as a sweep line
// (NewSweep) so that the heap holds only the files live at one
// instant, and the paper's step that splits a dump file set into
// subsets of time-overlapping files (PartitionOverlapping).
package merge

import (
	"container/heap"
	"errors"
	"io"
	"sort"
)

// Source is an ordered queue of items, typically one open dump file.
// Next returns io.EOF when the queue is exhausted; any other error
// aborts the merge.
type Source[T any] interface {
	Next() (T, error)
}

// SliceSource adapts an in-memory slice to a Source.
type SliceSource[T any] struct {
	Items []T
	pos   int
}

// Next implements Source.
func (s *SliceSource[T]) Next() (T, error) {
	if s.pos >= len(s.Items) {
		var zero T
		return zero, io.EOF
	}
	v := s.Items[s.pos]
	s.pos++
	return v, nil
}

type heapItem[T any] struct {
	value T
	src   int
	seq   uint64 // arrival order, for stable ties
}

type mergeHeap[T any] struct {
	items []heapItem[T]
	less  func(a, b T) bool
}

func (h *mergeHeap[T]) Len() int { return len(h.items) }
func (h *mergeHeap[T]) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if h.less(a.value, b.value) {
		return true
	}
	if h.less(b.value, a.value) {
		return false
	}
	return a.seq < b.seq
}
func (h *mergeHeap[T]) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap[T]) Push(x any)    { h.items = append(h.items, x.(heapItem[T])) }
func (h *mergeHeap[T]) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	old[n-1] = heapItem[T]{} // release the item for GC
	h.items = old[:n-1]
	return it
}

// Merger yields items from multiple ordered sources as one ordered
// stream. A source joins the heap on its first pull and leaves it,
// dropped by the merger, at EOF. Equal items come out in arrival
// order: source i's first item arrives as number i, every later item
// as the next number from len(sources) up. That is the order of a
// merge that pulls every first item before its first pop, whenever
// sources join, and records from one source never reorder.
type Merger[T any] struct {
	h       mergeHeap[T]
	sources []Source[T]
	// key and joinAt drive the sweep (NewSweep); a nil key joins
	// every source at the first Next.
	key    func(T) int64
	joinAt []int64
	joined int // sources[:joined] have joined
	seq    uint64
	err    error
}

// NewMerger builds a merger over sources ordered by less. Every source
// joins at the first Next.
func NewMerger[T any](less func(a, b T) bool, sources ...Source[T]) *Merger[T] {
	return &Merger[T]{
		h:       mergeHeap[T]{less: less},
		sources: sources,
		seq:     uint64(len(sources)),
	}
}

// NewSweep builds a sweep-line merger: sources[i] joins the heap when
// the frontier, the key of the heap's top item, reaches joinAt[i]
// (non-decreasing, one per source), or when the heap is empty. While
// no item is keyed below its source's joinAt, the output is NewMerger's
// item for item; such an item is delivered after the frontier passed.
func NewSweep[T any](less func(a, b T) bool, key func(T) int64, joinAt []int64, sources []Source[T]) *Merger[T] {
	m := NewMerger(less, sources...)
	m.key, m.joinAt = key, joinAt
	return m
}

// join pulls the first item of every source that is due, and of the
// next one whenever the heap is empty.
func (m *Merger[T]) join() error {
	for m.joined < len(m.sources) {
		if len(m.h.items) > 0 && m.key != nil && m.joinAt[m.joined] > m.key(m.h.items[0].value) {
			return nil
		}
		i := m.joined
		m.joined++
		v, err := m.sources[i].Next()
		if errors.Is(err, io.EOF) {
			m.sources[i] = nil
			continue
		}
		if err != nil {
			return err
		}
		m.h.items = append(m.h.items, heapItem[T]{value: v, src: i, seq: uint64(i)})
		heap.Fix(&m.h, len(m.h.items)-1)
		metHeapSize.Inc()
	}
	return nil
}

// Next returns the next item in merged order, or io.EOF when every
// source is exhausted.
func (m *Merger[T]) Next() (T, error) {
	var zero T
	if m.err != nil {
		return zero, m.err
	}
	if m.joined < len(m.sources) {
		if err := m.join(); err != nil {
			m.err = err
			return zero, err
		}
	}
	if len(m.h.items) == 0 {
		m.err = io.EOF
		return zero, io.EOF
	}
	top := m.h.items[0]
	next, err := m.sources[top.src].Next()
	switch {
	case errors.Is(err, io.EOF):
		m.sources[top.src] = nil
		heap.Pop(&m.h)
		metHeapSize.Dec()
	case err != nil:
		m.err = err
		return zero, err
	default:
		m.h.items[0] = heapItem[T]{value: next, src: top.src, seq: m.seq}
		m.seq++
		heap.Fix(&m.h, 0)
	}
	return top.value, nil
}

// Close abandons the merge, retracting the heap from the heap-size
// gauge; Next then returns io.EOF or the error that ended the merge.
func (m *Merger[T]) Close() {
	metHeapSize.Add(-int64(len(m.h.items)))
	m.h.items = nil
	m.sources = nil
	if m.err == nil {
		m.err = io.EOF
	}
}

// Interval is a closed time interval, in the units the caller chooses
// (dump files use Unix seconds).
type Interval struct {
	Start int64
	End   int64
}

// Overlaps reports whether the two closed intervals intersect.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Start <= other.End && other.Start <= iv.End
}

// PartitionOverlapping groups intervals into the connected components
// of the interval-overlap graph, implementing the iterative algorithm
// of §3.3.4: seed a subset with the oldest remaining file, add every
// file overlapping the subset, repeat. Returned groups hold indices
// into the input slice; groups are ordered by start time and indices
// within a group preserve input order for equal starts.
func PartitionOverlapping(intervals []Interval) [][]int {
	if len(intervals) == 0 {
		return nil
	}
	order := make([]int, len(intervals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return intervals[order[a]].Start < intervals[order[b]].Start
	})
	var groups [][]int
	var cur []int
	curEnd := int64(0)
	for _, idx := range order {
		iv := intervals[idx]
		if len(cur) == 0 {
			cur = []int{idx}
			curEnd = iv.End
			continue
		}
		if iv.Start <= curEnd { // overlaps the running component
			cur = append(cur, idx)
			if iv.End > curEnd {
				curEnd = iv.End
			}
			continue
		}
		groups = append(groups, cur)
		cur = []int{idx}
		curEnd = iv.End
	}
	groups = append(groups, cur)
	return groups
}
