package main

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Units of every metric the harness prints. BENCHMARK.json declares the
// same names with their direction and bound; a test keeps the two sets
// equal.

var endToEndUnits = map[string]string{
	"states_per_s":          "states/s",
	"alloc_bytes_per_state": "B",
	"peak_rss_mb":           "MB",
	"setup_s":               "s",
}

// Per-layer metrics are named <module>.<what>. A layer a workload does not
// run (dist on a serial search, the live stack on an offline one) reports 0.
var perLayerUnits = map[string]string{
	"scenario.initial_state_ms": "ms",
	"scenario.deploy_ms":        "ms",

	"sm.encode_fullstate_ns": "ns",
	"sm.decode_fullstate_ns": "ns",
	"sm.fullstate_bytes":     "B",

	"services.clone_ns":           "ns",
	"services.encode_state_bytes": "B",

	"props.check_ns_per_state": "ns",
	"props.violating_share":    "ratio",

	"mc.apply_event_ns":                    "ns",
	"mc.enabled_events_ns_per_state":       "ns",
	"mc.events_per_state":                  "count",
	"mc.full_hash_ns":                      "ns",
	"mc.replay_ns_per_event":               "ns",
	"mc.transitions_per_state":             "ratio",
	"mc.pruned_share":                      "ratio",
	"mc.allocs_per_transition":             "count",
	"mc.alloc_bytes_per_transition":        "B",
	"mc.accounted_bytes_per_state":         "B",
	"mc.retained_bytes_per_state":          "B",
	"mc.gc_cycles":                         "count",
	"mc.gc_cpu_share":                      "ratio",
	"mc.cpu_user_s":                        "s",
	"mc.cpu_sys_s":                         "s",
	"mc.run_wall_s":                        "s",
	"mc.engine_residual_ns_per_transition": "ns",

	"dist.speedup_vs_serial":        "ratio",
	"dist.forwarded_share":          "ratio",
	"dist.remote_deduped_share":     "ratio",
	"dist.batch_flushes":            "count",
	"dist.states_per_batch":         "count",
	"dist.reexpansion_share":        "ratio",
	"dist.send_ns_per_msg":          "ns",
	"dist.recv_wait_share":          "ratio",
	"dist.shard_skew":               "ratio",
	"dist.describe_event_ns":        "ns",
	"dist.retries":                  "count",
	"sim.virtual_s_per_host_s":      "ratio",
	"sim.bare_virtual_s_per_host_s": "ratio",

	"simnet.msgs_out":               "count",
	"simnet.checkpoint_bytes_share": "ratio",

	"runtime.actions_per_host_s": "1/s",
	"runtime.isc_checks":         "count",
	"runtime.isc_block_share":    "ratio",
	"runtime.filter_drop_share":  "ratio",

	"snapshot.bytes_per_round":  "B",
	"snapshot.checkpoint_bytes": "B",
	"snapshot.failure_share":    "ratio",

	"controller.round_ms_p50":         "ms",
	"controller.round_ms_p95":         "ms",
	"controller.rounds":               "count",
	"controller.searched_round_share": "ratio",
	"controller.states_per_round":     "count",
	"controller.check_host_share":     "ratio",
	"controller.recheck_states_share": "ratio",
	"controller.filters_installed":    "count",
	"controller.filter_unsafe_share":  "ratio",
	"controller.replay_reinstalls":    "count",
	"controller.mc_virtual_s":         "s",

	"bench.cold_pass_s":          "s",
	"bench.pass_s":               "s",
	"bench.pass_spread":          "ratio",
	"bench.failed_share":         "ratio",
	"bench.trace_overhead_share": "ratio",
	"bench.calibration_ns":       "ns",
}
