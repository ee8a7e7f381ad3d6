package main

// endToEnd lists the gated metrics every workload reports. Each has a
// per-workload meaning, printed with the run:
//
//	setup_s               ship-*: collectd launch (store open included) to the
//	                      first ack from both nodes; request-churn: LiveSession
//	                      start through Attach; offline-parse: the recording pass.
//	                      Median of several set-ups per run.
//	events_per_s          ship-*: events hooked, acked and folded per wall second;
//	                      request-churn: detail hook events per second with
//	                      tracing attached; offline-parse: events written and
//	                      parsed (to profile plus critpath) per second.
//	node_cpu_us_per_event benchmark-process CPU (user+sys) per event in the timed
//	                      phase; on ship-* it includes the dashboard client.
//	node_rss_mb           benchmark-process resident set after GC at the end
//	                      of the timed phase (the peak, VmHWM, is printed as
//	                      node_peak_rss_mb).
//	latency_p50_ms        ship-*: hook-to-queryable staleness seen by the
//	                      dashboard's /api/nodes polls; request-churn: one
//	                      request with detail tracing attached; offline-parse:
//	                      write plus parse of one 4096-event chunk.
//
// Times and rates are scaled to the reference host speed and, where
// steal slows them, to unstolen time (calib.go); each run also prints
// them as measured.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"events_per_s", "events/s"},
	{"node_cpu_us_per_event", "us"},
	{"node_rss_mb", "MiB"},
	{"latency_p50_ms", "ms"},
}

// layerMetric is one per-layer metric of the traced run: the workloads
// that exercise it, and the end-to-end metric it should move there. A
// workload that does not exercise the layer reports 0.
type layerMetric struct {
	name, unit, better string
	on                 []string
	moves              string
}

const (
	shipMem  = "ship-mem"
	shipDisk = "ship-disk"
	churn    = "request-churn"
	offline  = "offline-parse"
)

var (
	onShip = []string{shipMem, shipDisk}
	onAll  = []string{shipMem, shipDisk, churn, offline}
)

var layerMetrics = []layerMetric{
	{"instrument.trace_ns", "ns", "lower", []string{churn}, "events_per_s (requests_per_s), slowdown_x"},
	{"trace.enter_exit_ns", "ns", "lower", []string{shipMem, shipDisk, offline}, "node_cpu_us_per_event, events_per_s; setup_s on offline-parse"},
	{"trace.lanes", "count", "lower", []string{churn}, "node_rss_mb"},
	{"trace.drain_ms", "ms", "lower", []string{shipMem, shipDisk, churn}, "latency_p50_ms (fresh) on ship-*, events_per_s on request-churn"},
	{"trace.dropped_events", "count", "lower", onAll, "failures"},
	{"trace.write_ns_per_event", "ns", "lower", []string{offline}, "events_per_s (write_events_per_s)"},
	{"trace.write_allocs_per_event", "allocs/event", "lower", []string{offline}, "events_per_s (write_events_per_s)"},
	{"trace.scan_ns_per_event", "ns", "lower", []string{offline}, "events_per_s (parse_events_per_s)"},
	{"trace.scan_allocs_per_event", "allocs/event", "lower", []string{offline}, "events_per_s (parse_events_per_s)"},
	{"trace.file_bytes_per_event", "B/event", "lower", []string{offline}, "events_per_s (parse_events_per_s)"},
	{"collect.ship_ns_per_event", "ns", "lower", onShip, "node_cpu_us_per_event"},
	{"collect.ack_rtt_ms", "ms", "lower", onShip, "latency_p50_ms (fresh)"},
	{"collect.window_wait_frac", "ratio", "lower", onShip, "events_per_s (shows which side bounds it)"},
	{"collect.shipper_dropped_events", "count", "lower", onShip, "failures"},
	{"collect.resends", "count", "lower", onShip, "failures"},
	{"collect.decode_ns_per_event", "ns", "lower", onShip, "collector_cpu_us_per_event, events_per_s on ship-mem"},
	{"collect.fold_ns_per_event", "ns", "lower", onShip, "collector_cpu_us_per_event, events_per_s on ship-mem"},
	{"collect.wire_bytes_per_event", "B/event", "lower", onShip, "collector_cpu_us_per_event, events_per_s on ship-mem"},
	{"collect.shard_queue_depth_max", "count", "lower", onShip, "fresh_p99_ms"},
	{"collect.ingest_errors", "count", "lower", onShip, "failures"},
	{"collect.dedup_drops", "count", "lower", onShip, "failures"},
	{"collect.window_cache_hit_ratio", "ratio", "higher", []string{shipDisk}, "query_p50_ms, query_p99_ms"},
	{"collect.window_decode_ms", "ms", "lower", []string{shipDisk}, "query_p50_ms, query_p99_ms"},
	{"store.append_ms", "ms", "lower", []string{shipDisk}, "events_per_s, latency_p50_ms (fresh)"},
	{"store.fsync_ms", "ms", "lower", []string{shipDisk}, "events_per_s, latency_p50_ms (fresh)"},
	{"store.syncs_per_append", "ratio", "lower", []string{shipDisk}, "events_per_s, latency_p50_ms (fresh)"},
	{"store.bytes_per_event", "B/event", "lower", []string{shipDisk}, "recover_s"},
	{"store.replay_batches", "count", "lower", []string{shipDisk}, "recover_s"},
	{"store.replay_ns_per_event", "ns", "lower", []string{shipDisk}, "recover_s"},
	{"store.range_batches_per_query", "count", "lower", []string{shipDisk}, "query_p50_ms"},
	{"parser.add_ns_per_event", "ns", "lower", []string{offline}, "events_per_s (parse_events_per_s)"},
	{"parser.add_allocs_per_event", "allocs/event", "lower", []string{offline}, "events_per_s (parse_events_per_s)"},
	{"critpath.add_ns_per_event", "ns", "lower", []string{offline}, "events_per_s (parse_events_per_s)"},
	{"runtime.node_gc_cpu_frac", "ratio", "lower", onAll, "node_cpu_us_per_event"},
	{"runtime.node_mallocs_per_event", "allocs/event", "lower", onAll, "node_cpu_us_per_event"},
	{"runtime.collector_gc_cpu_frac", "ratio", "lower", onShip, "collector_cpu_us_per_event"},
	{"runtime.collector_mallocs_per_event", "allocs/event", "lower", onShip, "collector_cpu_us_per_event"},
	{"bench.tracing_overhead_frac", "ratio", "lower", onAll, "none: traced against untraced events_per_s"},
	{"cpu.node_attributed_frac", "ratio", "higher", onAll, "none: share of node CPU the timed layers account for"},
	{"cpu.collector_attributed_frac", "ratio", "higher", onShip, "none: share of collector CPU the introspected layers account for"},
}

func (m layerMetric) runsOn(w string) bool {
	for _, x := range m.on {
		if x == w {
			return true
		}
	}
	return false
}
