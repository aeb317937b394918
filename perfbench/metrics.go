package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; the self-test checks that the two agree.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEndMetrics are what a run without tracing reports on its result
// line. Each gates later changes by its bound in BENCHMARK.json.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", false},
	{"knee_pubs_per_s", "1/s", true},
	{"ack_p50_ms", "ms", false},
	{"notify_p50_ms", "ms", false},
	{"cpu_ms_per_pub", "ms", false},
	{"live_heap_mb", "MB", false},
	{"recover_s", "s", false},
}

// perLayerMetrics are what a traced run reports. A layer a workload does
// not exercise reads 0 (transport on lib-sai, durable off durable-churn),
// as does engine.publish_us on durable-churn, whose store wraps the
// engine where the benchmark cannot reach. tail.* are the end-to-end p99
// latencies, too unsteady on a shared 2-CPU host to gate (see NOTES.md).
var perLayerMetrics = []metricDef{
	{"engine.publish_us_p50", "us", false},
	{"engine.publish_us_p99", "us", false},
	{"engine.deliveries_per_pub", "count", false},
	{"engine.handle_self_us_per_pub", "us", false},
	{"engine.handle_self_us.query", "us", false},
	{"engine.handle_self_us.al-index", "us", false},
	{"engine.handle_self_us.vl-index", "us", false},
	{"engine.handle_self_us.join", "us", false},
	{"engine.handle_self_us.notification", "us", false},
	{"engine.handle_self_us.unsubscribe", "us", false},
	{"engine.handle_self_us.other", "us", false},
	{"engine.notifs_per_pub", "count", false},
	{"engine.sink_len", "count", false},
	{"engine.storage_total", "count", false},
	{"engine.tf_gini", "frac", false},
	{"chord.hops_per_pub", "count", false},
	{"chord.msgs_per_pub", "count", false},
	{"chord.bytes_per_pub", "bytes", false},
	{"go.allocs_per_pub", "count", false},
	{"go.alloc_bytes_per_pub", "bytes", false},
	{"go.gc_cycles", "count", false},
	{"wire.encode_ns_per_msg", "ns", false},
	{"wire.decode_ns_per_msg", "ns", false},
	{"wire.size_ns_per_msg", "ns", false},
	{"wire.bytes_per_msg", "bytes", false},
	{"transport.rtt_us_p50", "us", false},
	{"transport.rtt_us_p99", "us", false},
	{"transport.frames_per_pub", "count", false},
	{"transport.bytes_per_pub", "bytes", false},
	{"transport.retries", "count", false},
	{"daemon.req_rtt_us_p50", "us", false},
	{"daemon.req_rtt_us_p99", "us", false},
	{"daemon.notify_events_per_pub", "count", false},
	{"durable.wal_bytes_per_op", "bytes", false},
	{"durable.checkpoints", "count", false},
	{"durable.checkpoint_ms_max", "ms", false},
	{"durable.snapshot_bytes", "bytes", false},
	{"durable.recover_replayed", "count", false},
	{"query.parse_us", "us", false},
	{"load.late_p99_ms", "ms", false},
	{"load.backlog_max", "count", false},
	{"tail.ack_p99_ms", "ms", false},
	{"tail.notify_p99_ms", "ms", false},
	{"check.pub_error_frac", "frac", false},
	{"check.notify_error_frac", "frac", false},
	{"trace.overhead_knee_pct", "%", false},
	{"trace.overhead_ack_p50_pct", "%", false},
	{"trace.overhead_cpu_pct", "%", false},
}
