package main

// metricDef names one reported metric. The same names, units and
// directions are listed in BENCHMARK.json; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are reported by every untraced run. sim_ metrics run on the
// virtual clock (their time units say so: sim_us is a simulated microsecond,
// which repeats exactly where wall time never does), host_ metrics are the
// simulator's own cost.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_mib_s", "MiB/s", "higher"},
	{"sim_p50_us", "sim_us", "lower"},
	{"sim_p99_us", "sim_us", "lower"},
	{"host_ns_per_op", "ns", "lower"},
	{"host_cpu_ns_per_op", "ns", "lower"},
	{"host_allocs_per_op", "count", "lower"},
	{"host_bytes_per_op", "B", "lower"},
	{"flash_waf", "ratio", "lower"},
	{"dev_waf", "ratio", "lower"},
}

// cpuLayers are the buckets of the traced run's CPU profile: the packages
// under internal/ the stack is made of, and the Go runtime for the rest.
var cpuLayers = []string{"volmgr", "raizn", "ppengine", "parity", "ring", "zns", "vclock", "obs", "stats", "runtime"}

// perLayerDefs are reported by every traced run, layer = package name.
var perLayerDefs = []metricDef{
	{"volmgr.submit_host_ns", "ns", "lower"},
	{"volmgr.queue_sim_us_p50", "sim_us", "lower"},
	{"volmgr.queue_sim_us_p99", "sim_us", "lower"},
	{"volmgr.read_sim_us_p99", "sim_us", "lower"},
	{"volmgr.write_sim_us_p99", "sim_us", "lower"},
	{"volmgr.coalesce_ratio", "ratio", "higher"},
	{"volmgr.batch_mean", "count", "higher"},
	{"volmgr.shed_share", "share", "lower"},
	{"volmgr.slo_miss_share", "share", "lower"},
	{"volmgr.jain", "ratio", "higher"},
	{"volmgr.self_host_ns_per_op", "ns", "lower"},
	{"volmgr.cpu_share", "share", "lower"},

	{"raizn.direct_host_ns_per_op", "ns", "lower"},
	{"raizn.direct_sim_us_p50", "sim_us", "lower"},
	{"raizn.direct_sim_us_p99", "sim_us", "lower"},
	{"raizn.submit_host_ns", "ns", "lower"},
	{"raizn.subio_per_op", "count", "lower"},
	{"raizn.coalesced_subwrites_per_op", "count", "higher"},
	{"raizn.full_parity_per_op", "count", "lower"},
	{"raizn.pp_logs_per_op", "count", "lower"},
	{"raizn.wa_data", "ratio", "lower"},
	{"raizn.wa_parity", "ratio", "lower"},
	{"raizn.wa_pp", "ratio", "lower"},
	{"raizn.wa_metadata", "ratio", "lower"},
	{"raizn.md_gcs", "count", "lower"},
	{"raizn.relocations", "count", "lower"},
	{"raizn.degraded_pieces_per_op", "count", "lower"},
	{"raizn.rebuild_sim_mib_s", "MiB/s", "higher"},
	{"raizn.rebuild_host_ns_per_mib", "ns/MiB", "lower"},
	{"raizn.mount_sim_ms", "sim_ms", "lower"},
	{"raizn.mount_host_ms", "ms", "lower"},
	{"raizn.cpu_share", "share", "lower"},

	{"ppengine.pp_bytes_per_user_byte", "ratio", "lower"},
	{"ppengine.volatile_share", "share", "higher"},
	{"ppengine.fallbacks", "count", "lower"},
	{"ppengine.gc_runs", "count", "lower"},
	{"ppengine.gc_migrated", "count", "lower"},
	{"ppengine.cpu_share", "share", "lower"},

	{"parity.probe_gib_s", "GiB/s", "higher"},
	{"parity.probe_reconstruct_gib_s", "GiB/s", "higher"},
	{"parity.cpu_share", "share", "lower"},

	{"ring.probe_host_ns_per_cmd", "ns", "lower"},
	{"ring.cpu_share", "share", "lower"},

	{"zns.write_cmds_per_op", "count", "lower"},
	{"zns.read_cmds_per_op", "count", "lower"},
	{"zns.bytes_per_write_cmd", "B", "higher"},
	{"zns.flushes_per_op", "count", "lower"},
	{"zns.resets", "count", "lower"},
	{"zns.finishes", "count", "lower"},
	{"zns.write_pipe_util", "share", "higher"},
	{"zns.read_pipe_util", "share", "higher"},
	{"zns.flash_per_host_byte", "ratio", "lower"},
	{"zns.probe_write_host_ns_per_cmd", "ns", "lower"},
	{"zns.probe_read_host_ns_per_cmd", "ns", "lower"},
	{"zns.cpu_share", "share", "lower"},

	{"vclock.probe_host_ns_per_wake", "ns", "lower"},
	{"vclock.cpu_share", "share", "lower"},

	{"obs.trace_overhead_pct", "%", "lower"},
	{"obs.spans_per_op", "count", "lower"},
	{"obs.cpu_share", "share", "lower"},
	{"stats.cpu_share", "share", "lower"},

	{"runtime.cpu_share", "share", "lower"},
	{"runtime.gc_cpu_share", "share", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.peak_rss_mib", "MiB", "lower"},
	{"bench.gen_late_us_p99", "sim_us", "lower"},
	{"bench.stream_hash", "hash", "lower"},
}

func perLayerUnit(name string) string {
	for _, d := range perLayerDefs {
		if d.name == name {
			return d.unit
		}
	}
	panic("benchmark: per-layer metric " + name + " is not in perLayerDefs")
}
