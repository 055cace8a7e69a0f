package merge

import "github.com/bgpstream-go/bgpstream/internal/obsv"

// metHeapSize is the process-wide merge heap gauge on obsv.Default. It
// moves only when a source joins (+1) or leaves at EOF (-1), never per
// record, so the O(log k) pop path stays untouched; Merger.Close
// retracts what an abandoned merge still holds.
var metHeapSize = obsv.Default.Gauge(
	"bgpstream_merge_heap_size",
	"Sources currently held in k-way merge heaps across all active merges.")
