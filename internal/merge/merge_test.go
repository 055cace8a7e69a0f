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

// sweepItem is one item of a differential-test source: its key and
// where it came from, so outputs compare item for item.
type sweepItem struct {
	key      int64
	src, pos int
}

// primeAllModel is the reference for the sweep: pull every source's
// first item before the first pop, then repeatedly take the smallest
// head by linear scan, ties going to the earliest arrival (first items
// arrive in source order, each refill after everything before it).
func primeAllModel(srcs [][]sweepItem) []sweepItem {
	type head struct {
		src, pos int
		arrival  int
	}
	var heads []head
	arrival := 0
	for i, items := range srcs {
		if len(items) > 0 {
			heads = append(heads, head{src: i, arrival: arrival})
			arrival++
		}
	}
	var out []sweepItem
	for len(heads) > 0 {
		best := 0
		for j := range heads {
			a, b := srcs[heads[j].src][heads[j].pos], srcs[heads[best].src][heads[best].pos]
			if a.key < b.key || (a.key == b.key && heads[j].arrival < heads[best].arrival) {
				best = j
			}
		}
		h := &heads[best]
		out = append(out, srcs[h.src][h.pos])
		h.pos++
		if h.pos == len(srcs[h.src]) {
			heads = append(heads[:best], heads[best+1:]...)
		} else {
			h.arrival = arrival
			arrival++
		}
	}
	return out
}

// TestQuickSweepEqualsPrimeAll checks the sweep against primeAllModel
// over random sources sorted by start, every item keyed within
// [start - slack, end]: heavy key ties, abutting closed intervals,
// empty sources, and heads at exactly start and start - slack.
func TestQuickSweepEqualsPrimeAll(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nsrc := r.Intn(12)
		slack := int64(r.Intn(4))
		srcs := make([][]sweepItem, nsrc)
		joinAt := make([]int64, nsrc)
		sources := make([]Source[sweepItem], nsrc)
		start, end := int64(r.Intn(3)), int64(0)
		for i := range srcs {
			switch r.Intn(3) {
			case 0: // abut the previous interval
				if i > 0 {
					start = end
				}
			case 1:
				start += int64(r.Intn(4))
			}
			end = start + int64(r.Intn(6))
			joinAt[i] = start - slack
			n := 0
			if r.Intn(5) > 0 {
				n = 1 + r.Intn(8)
			}
			keys := make([]int64, n)
			for j := range keys {
				keys[j] = joinAt[i] + r.Int63n(end-joinAt[i]+1)
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			if n > 0 {
				switch r.Intn(3) {
				case 0:
					keys[0] = joinAt[i]
				case 1:
					keys[0] = min(start, keys[len(keys)-1])
				}
			}
			for j, k := range keys {
				srcs[i] = append(srcs[i], sweepItem{key: k, src: i, pos: j})
			}
			sources[i] = &SliceSource[sweepItem]{Items: srcs[i]}
		}
		m := NewSweep(func(a, b sweepItem) bool { return a.key < b.key },
			func(it sweepItem) int64 { return it.key }, joinAt, sources)
		got := drain(t, m.Next)
		want := primeAllModel(srcs)
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: sweep %v, model %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// countingSource records how often the merger pulled it.
type countingSource struct {
	SliceSource[int]
	pulls int
}

func (c *countingSource) Next() (int, error) {
	c.pulls++
	return c.SliceSource.Next()
}

// TestSweepJoinsAtFrontier pins the point of the sweep: a source is
// not pulled before the frontier reaches its joinAt, or the heap runs
// empty, and the merger drops each source at its EOF.
func TestSweepJoinsAtFrontier(t *testing.T) {
	a := &countingSource{SliceSource: SliceSource[int]{Items: []int{0, 1, 2}}}
	b := &countingSource{SliceSource: SliceSource[int]{Items: []int{12, 13}}}
	c := &countingSource{SliceSource: SliceSource[int]{Items: []int{13}}}
	m := NewSweep(intLess, func(v int) int64 { return int64(v) }, []int64{0, 10, 13}, []Source[int]{a, b, c})
	pulls := func() [3]int { return [3]int{a.pulls, b.pulls, c.pulls} }
	steps := []struct {
		want  int
		pulls [3]int
	}{
		{0, [3]int{2, 0, 0}},
		{1, [3]int{3, 0, 0}},
		{2, [3]int{4, 0, 0}},  // a's EOF
		{12, [3]int{4, 2, 0}}, // heap empty: b joins at 12 < 13
		{13, [3]int{4, 2, 2}}, // frontier 13: c joins; a first item beats b's refill
		{13, [3]int{4, 3, 2}},
	}
	for i, st := range steps {
		v, err := m.Next()
		if err != nil || v != st.want || pulls() != st.pulls {
			t.Fatalf("step %d: got %d, %v, pulls %v; want %d, pulls %v", i, v, err, pulls(), st.want, st.pulls)
		}
	}
	if _, err := m.Next(); err != io.EOF {
		t.Fatalf("after the last item: %v, want EOF", err)
	}
	for i, src := range m.sources {
		if src != nil {
			t.Errorf("source %d still referenced after its EOF", i)
		}
	}
}

// TestMergerHeapGaugeRetracts: the heap-size gauge returns to its value
// before the merge both at EOF and after Close of a merge abandoned
// midway, and Close ends the merge.
func TestMergerHeapGaugeRetracts(t *testing.T) {
	base := metHeapSize.Value()
	sources := func() []Source[int] {
		return []Source[int]{
			&SliceSource[int]{Items: []int{1, 4}},
			&SliceSource[int]{Items: []int{2, 5}},
			&SliceSource[int]{Items: []int{3}},
		}
	}
	m := NewMerger(intLess, sources()...)
	drain(t, m.Next)
	if got := metHeapSize.Value(); got != base {
		t.Errorf("gauge %d after EOF, want %d", got, base)
	}
	m = NewMerger(intLess, sources()...)
	if _, err := m.Next(); err != nil {
		t.Fatal(err)
	}
	if got := metHeapSize.Value() - base; got != 3 {
		t.Errorf("gauge +%d with three sources joined, want +3", got)
	}
	m.Close()
	if got := metHeapSize.Value(); got != base {
		t.Errorf("gauge %d after Close, want %d", got, base)
	}
	if _, err := m.Next(); err != io.EOF {
		t.Errorf("Next after Close: %v, want EOF", err)
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
