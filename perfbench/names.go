package main

// endToEndNames is every end-to-end metric an untraced run prints, in the
// order BENCHMARK.json lists them.
var endToEndNames = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"items_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
}

// perLayerNames is every per-layer metric a traced run prints, in the order
// BENCHMARK.json lists them. A workload that does not exercise a layer
// reports 0 for it.
var perLayerNames = []struct{ name, unit string }{
	// train
	{"nn.grads_ms", "ms"},
	{"nn.sgd_ms", "ms"},
	{"nn.fwd_ms.conv", "ms"},
	{"nn.fwd_ms.norm", "ms"},
	{"nn.fwd_ms.other", "ms"},
	{"nn.bwd_ms.conv", "ms"},
	{"nn.bwd_ms.norm", "ms"},
	{"nn.bwd_ms.other", "ms"},
	{"nn.recompute_share", "ratio"},
	{"nn.full_step_ms", "ms"},
	{"nn.allocs_per_op", "count"},
	{"nn.alloc_kb_per_op", "KiB"},
	{"nn.plan_groups", "count"},
	{"nn.plan_boundary_mb", "MiB"},
	{"nn.plan_arena_mb", "MiB"},
	// infer
	{"service.infer_ms", "ms"},
	{"http.overhead_ms", "ms"},
	{"infer.queue_wait_ms", "ms"},
	{"infer.batch_mean", "count"},
	{"infer.full_flush_ratio", "ratio"},
	{"infer.shed", "count"},
	{"nn.predict_ms.b1", "ms"},
	{"nn.predict_ms.b8", "ms"},
	{"loadgen.lag_ms", "ms"},
	// sweep
	{"service.run_queue_ms", "ms"},
	{"service.run_compute_ms", "ms"},
	{"service.run_render_ms", "ms"},
	{"jobs.op_ms", "ms"},
	{"jobs.shards_per_job", "count"},
	{"jobs.requeues", "count"},
	{"sweep.hit_ratio", "ratio"},
	{"sweep.plan_misses", "count"},
	{"sweep.traffic_misses", "count"},
	{"sweep.evictions", "count"},
	{"sweep.cache_mb", "MiB"},
	{"models.build_ms", "ms"},
	{"core.plan_ms", "ms"},
	{"core.traffic_ms", "ms"},
	{"sim.simulate_ms", "ms"},
	{"experiments.render_ms", "ms"},
	{"sim.dram_gb_total", "GB"},
	{"sim.step_s_total", "sim_s"},
	// all workloads
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"op.p99_ms", "ms"},
	{"op.samples", "count"},
	{"host.ref_ms", "ms"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_items_per_s", "1/s"},
}
