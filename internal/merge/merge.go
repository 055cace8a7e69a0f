// Package merge implements the record-sorting machinery of
// libBGPStream §3.3.4: a k-way merge over ordered record queues
// (container/heap based) and the partitioning step that splits a dump
// file set into disjoint subsets of time-overlapping files so that
// each multi-way merge touches only the files that actually interleave.
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
	h.items = old[:n-1]
	return it
}

// Merger yields items from multiple ordered sources as one ordered
// stream. Ties preserve source insertion order, so records from the
// same file never reorder.
type Merger[T any] struct {
	h       *mergeHeap[T]
	sources []Source[T]
	started bool
	seq     uint64
	err     error
}

// NewMerger builds a merger over sources ordered by less.
func NewMerger[T any](less func(a, b T) bool, sources ...Source[T]) *Merger[T] {
	return &Merger[T]{
		h:       &mergeHeap[T]{less: less},
		sources: sources,
	}
}

func (m *Merger[T]) prime() error {
	for i, src := range m.sources {
		v, err := src.Next()
		if errors.Is(err, io.EOF) {
			continue
		}
		if err != nil {
			return err
		}
		m.h.items = append(m.h.items, heapItem[T]{value: v, src: i, seq: m.seq})
		m.seq++
	}
	heap.Init(m.h)
	m.started = true
	metPartitions.Inc()
	metHeapSize.Add(int64(len(m.h.items)))
	return nil
}

// Next returns the next item in merged order, or io.EOF when every
// source is exhausted.
func (m *Merger[T]) Next() (T, error) {
	var zero T
	if m.err != nil {
		return zero, m.err
	}
	if !m.started {
		if err := m.prime(); err != nil {
			m.err = err
			return zero, err
		}
	}
	if m.h.Len() == 0 {
		m.err = io.EOF
		return zero, io.EOF
	}
	top := m.h.items[0]
	next, err := m.sources[top.src].Next()
	switch {
	case errors.Is(err, io.EOF):
		heap.Pop(m.h)
		metHeapSize.Dec()
	case err != nil:
		m.err = err
		return zero, err
	default:
		m.h.items[0] = heapItem[T]{value: next, src: top.src, seq: m.seq}
		m.seq++
		heap.Fix(m.h, 0)
	}
	return top.value, nil
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

// Sequence runs a series of mergers back to back: all items of group
// i precede all items of group i+1. It implements the "apply
// multi-way merge to each subset" step of §3.3.4.
type Sequence[T any] struct {
	groups  [][]Source[T]
	less    func(a, b T) bool
	current *Merger[T]
	idx     int
}

// NewSequence builds a sequence over ordered groups of sources.
func NewSequence[T any](less func(a, b T) bool, groups ...[]Source[T]) *Sequence[T] {
	return &Sequence[T]{groups: groups, less: less}
}

// Next returns the next item of the overall sequence, or io.EOF.
func (s *Sequence[T]) Next() (T, error) {
	var zero T
	for {
		if s.current == nil {
			if s.idx >= len(s.groups) {
				return zero, io.EOF
			}
			s.current = NewMerger(s.less, s.groups[s.idx]...)
			s.idx++
		}
		v, err := s.current.Next()
		if errors.Is(err, io.EOF) {
			s.current = nil
			continue
		}
		return v, err
	}
}
