package merge

import (
	"errors"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

// funcSource adapts a closure to a Source.
type funcSource[T any] func() (T, error)

func (f funcSource[T]) Next() (T, error) { return f() }

func drain[T any](t *testing.T, next func() (T, error)) []T {
	t.Helper()
	var out []T
	for {
		v, err := next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		out = append(out, v)
	}
}

func TestMergerBasic(t *testing.T) {
	m := NewMerger(intLess,
		&SliceSource[int]{Items: []int{1, 4, 7}},
		&SliceSource[int]{Items: []int{2, 5, 8}},
		&SliceSource[int]{Items: []int{3, 6, 9}},
	)
	got := drain(t, m.Next)
	want := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v", got)
	}
}

func TestMergerEmptySources(t *testing.T) {
	m := NewMerger(intLess,
		&SliceSource[int]{},
		&SliceSource[int]{Items: []int{5}},
		&SliceSource[int]{},
	)
	got := drain(t, m.Next)
	if !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("got %v", got)
	}
	if _, err := m.Next(); err != io.EOF {
		t.Errorf("post-EOF Next: %v", err)
	}
}

func TestMergerNoSources(t *testing.T) {
	m := NewMerger(intLess)
	if got := drain(t, m.Next); len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

type tsItem struct {
	ts  int
	src string
	seq int
}

func TestMergerStableTies(t *testing.T) {
	// Equal timestamps must come out in source order (source 0's items
	// first), and records within one source must never reorder.
	a := &SliceSource[tsItem]{Items: []tsItem{{ts: 1, src: "a", seq: 0}, {ts: 1, src: "a", seq: 1}}}
	b := &SliceSource[tsItem]{Items: []tsItem{{ts: 1, src: "b", seq: 0}, {ts: 2, src: "b", seq: 1}}}
	m := NewMerger(func(x, y tsItem) bool { return x.ts < y.ts }, a, b)
	got := drain(t, m.Next)
	if got[0].src != "a" || got[0].seq != 0 {
		t.Errorf("first = %+v, want a/0", got[0])
	}
	// a's two equal-ts items stay ordered.
	ai, aj := -1, -1
	for i, it := range got {
		if it.src == "a" && it.seq == 0 {
			ai = i
		}
		if it.src == "a" && it.seq == 1 {
			aj = i
		}
	}
	if ai > aj {
		t.Errorf("intra-source order violated: %v", got)
	}
}

func TestMergerPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	bad := funcSource[int](func() (int, error) {
		calls++
		if calls == 1 {
			return 1, nil
		}
		return 0, boom
	})
	m := NewMerger(intLess, bad, &SliceSource[int]{Items: []int{2}})
	// First Next returns 1 but refilling the bad source errors.
	if _, err := m.Next(); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if _, err := m.Next(); !errors.Is(err, boom) {
		t.Fatalf("error must be sticky, got %v", err)
	}
}

func TestQuickMergeEqualsSort(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nsrc := 1 + r.Intn(8)
		var all []int
		sources := make([]Source[int], nsrc)
		for i := 0; i < nsrc; i++ {
			n := r.Intn(50)
			items := make([]int, n)
			for j := range items {
				items[j] = r.Intn(1000)
			}
			sort.Ints(items)
			all = append(all, items...)
			sources[i] = &SliceSource[int]{Items: items}
		}
		sort.Ints(all)
		m := NewMerger(intLess, sources...)
		var got []int
		for {
			v, err := m.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			got = append(got, v)
		}
		return reflect.DeepEqual(got, all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPartitionBasic(t *testing.T) {
	// The Figure 3 scenario: two collectors with different dump
	// periods produce two disjoint overlap components.
	intervals := []Interval{
		{0, 300},
		{300, 600},
		{0, 900},
		{100, 400},
		{2000, 2300},
		{2100, 2400},
	}
	groups := PartitionOverlapping(intervals)
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groups[0]) != 4 || len(groups[1]) != 2 {
		t.Errorf("sizes = %d %d", len(groups[0]), len(groups[1]))
	}
}

func TestPartitionTransitiveChain(t *testing.T) {
	// a-b overlap, b-c overlap, a-c don't: all one component.
	groups := PartitionOverlapping([]Interval{{0, 10}, {9, 20}, {19, 30}})
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Errorf("groups = %v", groups)
	}
}

func TestPartitionTouchingEndpoints(t *testing.T) {
	// Closed intervals: [0,10] and [10,20] share instant 10.
	groups := PartitionOverlapping([]Interval{{0, 10}, {10, 20}, {21, 30}})
	if len(groups) != 2 {
		t.Errorf("groups = %v", groups)
	}
}

func TestPartitionEmpty(t *testing.T) {
	if got := PartitionOverlapping(nil); got != nil {
		t.Errorf("got %v", got)
	}
}

func TestPartitionSingleton(t *testing.T) {
	groups := PartitionOverlapping([]Interval{{5, 6}})
	if len(groups) != 1 || len(groups[0]) != 1 || groups[0][0] != 0 {
		t.Errorf("groups = %v", groups)
	}
}

func TestQuickPartitionIsOverlapComponents(t *testing.T) {
	// Oracle: union-find over the pairwise overlap graph.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		intervals := make([]Interval, n)
		for i := range intervals {
			s := int64(r.Intn(100))
			intervals[i] = Interval{s, s + int64(r.Intn(20))}
		}
		parent := make([]int, n)
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			if parent[x] != x {
				parent[x] = find(parent[x])
			}
			return parent[x]
		}
		union := func(a, b int) { parent[find(a)] = find(b) }
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if intervals[i].Overlaps(intervals[j]) {
					union(i, j)
				}
			}
		}
		wantComponents := map[int][]int{}
		for i := 0; i < n; i++ {
			root := find(i)
			wantComponents[root] = append(wantComponents[root], i)
		}
		groups := PartitionOverlapping(intervals)
		if len(groups) != len(wantComponents) {
			return false
		}
		for _, g := range groups {
			root := find(g[0])
			if len(g) != len(wantComponents[root]) {
				return false
			}
			for _, idx := range g {
				if find(idx) != root {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSequenceOrdersGroups(t *testing.T) {
	s := NewSequence(intLess,
		[]Source[int]{&SliceSource[int]{Items: []int{1, 5}}, &SliceSource[int]{Items: []int{2}}},
		[]Source[int]{&SliceSource[int]{Items: []int{0, 9}}}, // later group, smaller values stay after
	)
	got := drain(t, s.Next)
	want := []int{1, 2, 5, 0, 9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestSequenceEmptyGroups(t *testing.T) {
	s := NewSequence[int](intLess)
	if got := drain(t, s.Next); len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

func BenchmarkMerge150Sources(b *testing.B) {
	// The paper's worst case: ~150 files per subset.
	r := rand.New(rand.NewSource(7))
	const nsrc = 150
	base := make([][]int, nsrc)
	total := 0
	for i := range base {
		n := 200
		items := make([]int, n)
		for j := range items {
			items[j] = r.Intn(1 << 20)
		}
		sort.Ints(items)
		base[i] = items
		total += n
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sources := make([]Source[int], nsrc)
		for j := range sources {
			sources[j] = &SliceSource[int]{Items: base[j]}
		}
		m := NewMerger(intLess, sources...)
		n := 0
		for {
			_, err := m.Next()
			if err == io.EOF {
				break
			}
			n++
		}
		if n != total {
			b.Fatalf("merged %d", n)
		}
	}
}
