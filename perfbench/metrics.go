package main

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd is what an untraced run reports (-trace 0). Every workload
// measures every one of them; BENCHMARK.json gives their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer is what a traced run reports (-trace 1). A layer a workload
// bypasses reads 0; README.md lists each metric's target end-to-end
// metric and workload.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.events_per_s", "1/s"},
		{"shard.speedup", "ratio"},
		{"shard.park_share", "ratio"},
		{"shard.events_per_step", "count"},
		{"shard.crossings", "count"},
		{"net.tx_frames", "count"},
		{"net.queue_delay_p99_us", "us"},
		{"alloc_mb", "MB"},
		{"ltl.send_ns", "ns"},
		{"ltl.rtt_p99_us", "us"},
		{"kvcache.issue_ns", "ns"},
		{"er.flits_switched", "count"},
		{"er.stall_conflict", "count"},
		{"shell.pcie_reqs", "count"},
		{"kv.hit_rate", "ratio"},
		{"kv.occupancy", "ratio"},
		{"kv.evictions", "count"},
		{"kv.virt_p99_us", "us"},
		{"rpc.virt_p99_us", "us"},
		{"frontend.lag_peak_ms", "ms"},
		{"frontend.wall_minus_virt_p50_ms", "ms"},
		{"http.healthz_p50_us", "us"},
		{"svclb.shed", "count"},
		{"loadgen.late_ms", "ms"},
		{"http_p50_ms", "ms"},
		{"http_p99_ms", "ms"},
		{"http_samples", "count"},
		{"http_max_rps", "1/s"},
		{"obs.overhead_frac", "ratio"},
	}
	for _, l := range cpuLayers {
		m = append(m, metricDef{l + ".cpu_share", "share"})
	}
	for _, l := range virtLayers {
		m = append(m, metricDef{l + ".virt_share", "share"})
	}
	return m
}()
