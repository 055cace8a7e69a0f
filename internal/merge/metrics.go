package merge

import "github.com/bgpstream-go/bgpstream/internal/obsv"

// Process-wide merge metrics on obsv.Default. The heap-size gauge is
// updated only at prime time (+k) and source exhaustion (-1), never
// per record, so the O(log k) pop path stays untouched; a merge
// abandoned mid-stream leaves its primed count behind.
var (
	metHeapSize = obsv.Default.Gauge(
		"bgpstream_merge_heap_size",
		"Sources currently held in k-way merge heaps across all active merges.")
	metPartitions = obsv.Default.Counter(
		"bgpstream_merge_partitions_total",
		"Overlap partitions merged (one per primed merger).")
)
