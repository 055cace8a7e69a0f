package core

import "github.com/bgpstream-go/bgpstream/internal/obsv"

// Process-wide pipeline metrics, registered on obsv.Default at init
// so every family appears in /metrics from startup (at zero) and
// hot-path call sites hold pre-resolved handles — each update is one
// atomic add, no lookups, no allocations.
var (
	metStreamElems = obsv.Default.Counter(
		"bgpstream_stream_elems_total",
		"Elems delivered to consumers after all filters.")
	metStreamFilterRejected = obsv.Default.Counter(
		"bgpstream_stream_filter_rejected_total",
		"Decoded elems dropped by elem-level filters.")
	metDecodedRecords = obsv.Default.Counter(
		"bgpstream_prefetch_records_decoded_total",
		"MRT records decoded from dump files (sequential and parallel pipelines).")
	metCorruptDumps = obsv.Default.Counter(
		"bgpstream_prefetch_corrupt_dumps_total",
		"Dump files skipped or truncated due to corruption (invalid records emitted).")
	metPrefetchBusy = obsv.Default.Gauge(
		"bgpstream_prefetch_workers_busy",
		"Decode workers currently holding a semaphore slot (parallel pipeline occupancy).")
	metPrefetchReadahead = obsv.Default.Gauge(
		"bgpstream_prefetch_readahead_records",
		"Records decoded ahead of the merge across all readahead queues. Approximate at batch granularity.")
	metMergeOutOfInterval = obsv.Default.Counter(
		"bgpstream_merge_out_of_interval_total",
		"Valid records merged after a later-stamped valid record: stamped before their dump file's start minus the merge slack, or across batches. Delivered, never dropped.")
	metPrefetchStalls = obsv.Default.Counter(
		"bgpstream_prefetch_stalls_total",
		"Merge-side pops that blocked because a decode worker had not caught up.")
)
