package main

// MetricDef names one metric: unit, direction, and for an end-to-end metric
// the share of the baseline's median by which it may worsen.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, the same on every
// workload. Bounds are set from the measured run-to-run spread (README).
var endToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "values_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "decision_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "decision_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "proto_bits_per_value", Unit: "bit", Better: "lower", Bound: 0.05},
	{Name: "alloc_kb_per_value", Unit: "KiB", Better: "lower", Bound: 0.12},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.05},
}

// perLayer are the metrics of single layers, printed by the traced run only.
// They are informational and carry no bound; a layer the workload bypasses
// reads 0.
var perLayer = []MetricDef{
	{Name: "engine.values_per_cycle", Unit: "count", Better: "higher"},
	{Name: "engine.cycles_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine.cycle_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.outside_cycle_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.queue_wait_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "consensus.generations_per_instance", Unit: "count", Better: "lower"},
	{Name: "consensus.rounds_per_cycle", Unit: "count", Better: "lower"},
	{Name: "consensus.pipelined_rounds_per_cycle", Unit: "count", Better: "lower"},
	{Name: "consensus.diagnosis_runs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "consensus.squashes_per_cycle", Unit: "count", Better: "lower"},
	{Name: "consensus.bits_over_formula", Unit: "ratio", Better: "lower"},
	{Name: "consensus.reported_match_ms", Unit: "ms", Better: "lower"},
	{Name: "consensus.reported_broadcast_ms", Unit: "ms", Better: "lower"},
	{Name: "consensus.reported_rs_ms", Unit: "ms", Better: "lower"},
	{Name: "consensus.reported_diagnosis_ms", Unit: "ms", Better: "lower"},

	{Name: "node.round_us", Unit: "us", Better: "lower"},
	{Name: "node.frames_per_round", Unit: "count", Better: "lower"},
	{Name: "node.round_wait_p50_us", Unit: "us", Better: "lower"},

	{Name: "wire.bytes_per_frame", Unit: "B", Better: "higher"},
	{Name: "wire.expansion", Unit: "ratio", Better: "lower"},

	{Name: "transport.frames_per_value", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_value", Unit: "B", Better: "lower"},
	{Name: "transport.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.reconnects", Unit: "count", Better: "lower"},

	{Name: "mem.mallocs_per_value", Unit: "count", Better: "lower"},
	{Name: "mem.gc_per_s", Unit: "1/s", Better: "lower"},
	{Name: "mem.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},

	{Name: "sched.cpu_ms_per_value", Unit: "ms", Better: "lower"},
	{Name: "sched.cpu_util", Unit: "ratio", Better: "lower"},
	{Name: "sched.procsN_over_procs1", Unit: "ratio", Better: "higher"},

	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.over_limit_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "rs.encode_us_per_gen", Unit: "us", Better: "lower"},
	{Name: "rs.decode_us_per_gen", Unit: "us", Better: "lower"},
	{Name: "rs.consistent_us_per_gen", Unit: "us", Better: "lower"},
	{Name: "rs.share_of_cycle_pct", Unit: "%", Better: "lower"},
	{Name: "gf.mulwordsxor_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "bitio.write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.encode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_frame", Unit: "ns", Better: "lower"},

	{Name: "transport.tcp_send_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_pingpong_us", Unit: "us", Better: "lower"},
	{Name: "transport.bus_pingpong_us", Unit: "us", Better: "lower"},
	{Name: "sim.empty_round_us", Unit: "us", Better: "lower"},
	{Name: "node.empty_round_us.bus", Unit: "us", Better: "lower"},
	{Name: "node.empty_round_us.tcp", Unit: "us", Better: "lower"},

	{Name: "bsb.oracle.rounds_per_bit", Unit: "count", Better: "lower"},
	{Name: "bsb.oracle.bits_per_bit", Unit: "bit", Better: "lower"},
	{Name: "bsb.oracle.us_per_bit", Unit: "us", Better: "lower"},
	{Name: "bsb.phaseking.rounds_per_bit", Unit: "count", Better: "lower"},
	{Name: "bsb.phaseking.bits_per_bit", Unit: "bit", Better: "lower"},
	{Name: "bsb.phaseking.us_per_bit", Unit: "us", Better: "lower"},
	{Name: "bsb.eig.rounds_per_bit", Unit: "count", Better: "lower"},
	{Name: "bsb.eig.bits_per_bit", Unit: "bit", Better: "lower"},
	{Name: "bsb.eig.us_per_bit", Unit: "us", Better: "lower"},

	{Name: "fleet.s2_over_s1", Unit: "ratio", Better: "higher"},
}

// layerNotes are the caveats printed beside a per-layer metric.
var layerNotes = map[string]string{
	"engine.queue_wait_p50_ms":        "registry quantile: <=2x upper bound, cumulative since Open",
	"node.round_wait_p50_us":          "registry quantile: <=2x upper bound, cumulative since Open",
	"transport.write_p50_us":          "registry quantile: <=2x upper bound, every 16th write sampled",
	"consensus.reported_match_ms":     "as reported; known not to partition the cycle (ROADMAP item 2)",
	"consensus.reported_broadcast_ms": "as reported; known not to partition the cycle (ROADMAP item 2)",
	"consensus.reported_rs_ms":        "as reported; known not to partition the cycle (ROADMAP item 2)",
	"consensus.reported_diagnosis_ms": "as reported; known not to partition the cycle (ROADMAP item 2)",
	"gen.late_p99_ms":                 "open loop only",
	"gen.over_limit_share":            "open loop only",
	"harness.trace_overhead_pct":      "one untraced against one traced window: within run-to-run noise",
}
