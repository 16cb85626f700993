package main

// metricDef is one metric of the benchmark as BENCHMARK.json declares it.
// Bound is the share of the parent's median by which an end-to-end metric
// may worsen before a change counts as a regression; per-layer metrics
// have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics every workload reports on a --trace 0 run. An
// op is the workload's unit of work: an item routed (query-10k), an
// observation applied (ingest-10k) or an event answered (fleet-5k). Times
// and rates are scaled to the reference host (see hostprobe.go).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer are the metrics a --trace 1 run reports: every rung of the
// three layer ladders (see README.md for which end-to-end metric each one
// should move, and on which workload).
var perLayer = []metricDef{
	// Query ladder (ytube-10k, in-process).
	{Name: "core.register_us", Unit: "us", Better: "lower"},
	{Name: "ranking.encode_us", Unit: "us", Better: "lower"},
	{Name: "cppse.search_us", Unit: "us", Better: "lower"},
	{Name: "cppse.search_serial_us", Unit: "us", Better: "lower"},
	{Name: "cppse.parallel_speedup", Unit: "x", Better: "higher"},
	{Name: "query.call_us", Unit: "us", Better: "lower"},
	{Name: "query.residual_us", Unit: "us", Better: "lower"},
	{Name: "sigtree.nodes_per_item", Unit: "count", Better: "lower"},
	{Name: "sigtree.scored_per_item", Unit: "count", Better: "lower"},
	{Name: "sigtree.prune_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.allocs_per_item", Unit: "count", Better: "lower"},
	// Ingest ladder (ytube-10k, 64-observation batches).
	{Name: "core.observe_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "server.http_ms_per_batch", Unit: "ms", Better: "lower"},
	{Name: "wal.append_ms_per_batch", Unit: "ms", Better: "lower"},
	{Name: "cppse.users_refreshed_per_batch", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_obs", Unit: "B", Better: "lower"},
	{Name: "ingest.residual_ms", Unit: "ms", Better: "lower"},
	// Fleet ladder (ytube-5k, /v2/session events).
	{Name: "core.ask_us", Unit: "us", Better: "lower"},
	{Name: "core.event_ms", Unit: "ms", Better: "lower"},
	{Name: "server.session_ask_us", Unit: "us", Better: "lower"},
	{Name: "server.session_event_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.scatter_ask_us", Unit: "us", Better: "lower"},
	{Name: "shard.broadcast_event_ms", Unit: "ms", Better: "lower"},
	{Name: "shardrpc.rpc_ask_us", Unit: "us", Better: "lower"},
	{Name: "shardrpc.rpc_event_ms", Unit: "ms", Better: "lower"},
	{Name: "shardrpc.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "server.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "server.cpu_us_per_event", Unit: "us", Better: "lower"},
	{Name: "shardrpc.shardd_cpu_us_per_event", Unit: "us", Better: "lower"},
	{Name: "fleet.residual_pct", Unit: "%", Better: "lower"},
}
