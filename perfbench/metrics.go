package main

// metric is one reported quantity. Host times use ms/us/ns/s; simulated
// times use sim-ms, so a number never leaves doubt about which clock it
// was read from.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the untraced run's metrics that BENCHMARK.json bounds. Each
// applies to every workload. Host times are in reference-host time: each
// measured time scaled by the calibration probe run next to it (see probe).
var endToEnd = []metric{
	{"jobs_per_s", "1/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// unbounded are the untraced run's other metrics, printed with every run:
// the host times as measured, which follow the host's speed drift, the
// host's speed relative to the reference host, and the op failure ratio.
var unbounded = []metric{
	{"wall_jobs_per_s", "1/s", "higher"},
	{"wall_op_ms_p50", "ms", "lower"},
	{"wall_op_ms_p90", "ms", "lower"},
	{"wall_setup_s", "s", "lower"},
	{"host_slowdown", "ratio", "lower"},
	{"op_fail_ratio", "ratio", "lower"},
}

// simulated are the end-to-end metrics read from the simulated clock. They
// repeat exactly run to run; a change that only speeds up the simulator
// leaves them identical. Untraced runs print them next to endToEnd; traced
// runs report them with the per-layer metrics.
var simulated = []metric{
	{"sim_ms", "sim-ms", "lower"},
	{"sim_goodput_rps", "1/sim-s", "higher"},
	{"sim_p99_ms", "sim-ms", "lower"},
}

// perLayer are the traced run's metrics, named <module>.<metric>, per op.
// A layer that does no work on a workload reports 0 there.
var perLayer = append([]metric{
	{"sim.edges_delivered", "count", "lower"},
	{"sim.edges_skipped", "count", "higher"},
	{"sim.skip_ratio", "ratio", "higher"},
	{"sim.heap_ops", "count", "lower"},
	{"sim.host_ns_per_edge", "ns", "lower"},
	{"imu.channels_bound", "count", "lower"},
	{"imu.accesses", "count", "lower"},
	{"imu.tlb_hit_ratio", "ratio", "higher"},
	{"imu.faults", "count", "lower"},
	{"imu.fault_cycles", "cycles", "lower"},
	{"vim.faults", "count", "lower"},
	{"vim.evictions", "count", "lower"},
	{"vim.writebacks", "count", "lower"},
	{"vim.pages_loaded", "count", "lower"},
	{"vim.loads_elided", "count", "higher"},
	{"vim.bytes_moved", "bytes", "lower"},
	{"core.execute_ms", "ms", "lower"},
	{"core.load_ms", "ms", "lower"},
	{"core.hw_ms", "sim-ms", "lower"},
	{"core.sw_dp_ms", "sim-ms", "lower"},
	{"core.sw_imu_ms", "sim-ms", "lower"},
	{"core.sw_os_ms", "sim-ms", "lower"},
	{"platform.boot_ms", "ms", "lower"},
	{"platform.boot_alloc_mb", "MB", "lower"},
	{"sw.run_ms", "ms", "lower"},
	{"sw.host_ns_per_cpu_cycle", "ns", "lower"},
	{"rcsched.serve_ms", "ms", "lower"},
	{"rcsched.host_us_per_job", "us", "lower"},
	{"rcsched.serve_alloc_mb", "MB", "lower"},
	{"rcsched.reconfig_ratio", "ratio", "lower"},
	{"rcsched.resident_dispatch_ratio", "ratio", "higher"},
	{"rcsched.shed_ratio", "ratio", "lower"},
	{"rcsched.miss_ratio", "ratio", "lower"},
	{"rcsched.queue_wait_ms_p50", "sim-ms", "lower"},
	{"rcsched.queue_depth_max", "count", "lower"},
	{"rcsched.config_ms", "sim-ms", "lower"},
	{"rcsched.slot_util", "ratio", "higher"},
	{"fleet.route_ms", "ms", "lower"},
	{"fleet.resident_route_ratio", "ratio", "higher"},
	{"fleet.util_spread", "ratio", "lower"},
	{"fleet.board_serve_ms_sum", "ms", "lower"},
	{"fleet.board_serve_ms_max", "ms", "lower"},
	{"fleet.parallel_efficiency", "ratio", "higher"},
	{"traffic.stream_ms", "ms", "lower"},
	{"telemetry.overhead_ratio", "ratio", "lower"},
	{"telemetry.export_ms", "ms", "lower"},
	{"scenario.record_overhead_ratio", "ratio", "lower"},
}, simulated...)
