package main

// metricDef declares one metric the benchmark reports. The end-to-end list
// is mirrored, field for field, in BENCHMARK.json at the repository root
// (the smoke test holds the two together).
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: the share by which the median may worsen
	what   string
}

// endToEndDefs are the metrics a user of the system would see. Every
// workload reports all of them. Timings are host-deflated (raw ÷ S, rates
// × S); counts never are.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, "process start to first measured round: package init + clip render + the median of three system set-ups (build, seed LUTs, submit, warm-up rounds), each phase deflated"},
	{"frames_per_s", "1/s", "higher", 0.10, "frames served in the measured window ÷ its wall time, deflated"},
	{"cpu_ms_per_frame", "ms", "lower", 0.10, "process CPU time over the window (the reference kernel's own subtracted) ÷ frames, deflated by the kernel's CPU-time slowdown"},
	{"alloc_kb_per_frame", "KB", "lower", 0.05, "runtime.MemStats.TotalAlloc growth over the window ÷ frames"},
	{"served_share", "share", "higher", 0.02, "frames served ÷ frames offered; refused, timed-out, failed and lost sessions' frames count as missing"},
	{"full_quality_share", "share", "higher", 0.10, "served GOPs whose session sat at ladder rung 0 at full rate ÷ served GOPs (1 − degraded share)"},
	{"psnr_db", "dB", "higher", 0.01, "mean luma PSNR over the frames served in the window"},
	{"kbps", "kb/s", "lower", 0.05, "mean bitrate over the frames served in the window"},
	{"sim_joules_per_gop", "J", "lower", 0.05, "simulated platform energy over the window ÷ GOPs served in it"},
}

// perLayerDefs are the metrics of single layers, reported by a traced run.
// "what" says how the number is taken and which end-to-end metric it should
// move, on which workload.
var perLayerDefs = []metricDef{
	{"codec.tile_cpu_ms_per_frame", "ms", "lower", 0, "Σ TileStats.EncodeTime ÷ frames → frames_per_s, cpu_ms_per_frame on both steady workloads"},
	{"codec.encode_ms_per_frame", "ms", "lower", 0, "probe: Encoder.EncodeFrame on captured grid+params → frames_per_s on both steady workloads"},
	{"codec.decode_ms_per_frame", "ms", "lower", 0, "probe: Decoder.DecodeFrame on the probe's own bitstreams → no end-to-end metric (the service only encodes)"},
	{"codec.intra_block_share", "share", "lower", 0, "intra ÷ (intra+inter) mode decisions → kbps, psnr_db everywhere"},
	{"codec.skipped_block_share", "share", "higher", 0, "transform sub-blocks that took the all-zero skip path ÷ all sub-blocks → cpu_ms_per_frame on steady_proposed"},
	{"codec.bits_per_frame", "bit", "lower", 0, "Σ frame bits ÷ frames → kbps everywhere"},
	{"motion.search_time_share", "share", "lower", 0, "Σ SearchTime ÷ Σ EncodeTime → frames_per_s on steady_baseline; small on steady_proposed"},
	{"motion.search_evals_per_frame", "count", "lower", 0, "Σ SearchEvals ÷ frames (exact) → frames_per_s on steady_baseline"},
	{"motion.search_us_per_block.tz", "us", "lower", 0, "probe: TZSearch, window 64, on captured 16×16 blocks → frames_per_s on steady_baseline"},
	{"motion.search_us_per_block.hex", "us", "lower", 0, "probe: rotating Hexagon, window 32 → frames_per_s on steady_proposed, serve.first_gop_ms_p50 on churn_overload"},
	{"motion.search_us_per_block.oaat", "us", "lower", 0, "probe: OneAtATime, window 8 → frames_per_s on steady_proposed"},
	{"motion.alloc_b_per_search", "B", "lower", 0, "probe: TotalAlloc per TZSearch call → alloc_kb_per_frame on steady_baseline"},
	{"transform.fwd_inv_ns_per_block8", "ns", "lower", 0, "probe: Forward+Inverse on captured 8×8 residual blocks → cpu_ms_per_frame on steady_proposed"},
	{"transform.quant_ns_per_block8", "ns", "lower", 0, "probe: Quantizer.Quantize at QP 32 → cpu_ms_per_frame on steady_proposed"},
	{"entropy.coeff_block_ns", "ns", "lower", 0, "probe: EncodeCoeffBlock on the quantized blocks → cpu_ms_per_frame on steady_proposed"},
	{"entropy.bits_per_block", "bit", "lower", 0, "bits EncodeCoeffBlock wrote per block → kbps"},
	{"analysis.evaluate_grid_ms", "ms", "lower", 0, "probe: NewEvaluator+EvaluateGrid on a captured GOP-start frame → serve.first_gop_ms_p50, core.round_ms_p50 on churn_overload; ≈1% on steady"},
	{"tiling.retile_ms", "ms", "lower", 0, "probe: tiling.Retile on the same frame → serve.first_gop_ms_p50 on churn_overload"},
	{"tiling.tiles_per_frame_mean", "count", "lower", 0, "tiles encoded ÷ frames → core.round_ms_p50 (more tiles, more threads to place)"},
	{"workload.estimate_into_ns_per_key", "ns", "lower", 0, "probe: LUT.EstimateInto over the pass's final keys → core.round_ms_p50 on churn_overload"},
	{"workload.observe_ns", "ns", "lower", 0, "probe: LUT.Observe → cpu_ms_per_frame (once per tile per frame)"},
	{"workload.lut_keys", "count", "lower", 0, "keys in the fleets' LUT stores after the pass → served_share on churn_overload (coverage of stage D1)"},
	{"core.estimate_err_mean", "share", "lower", 0, "tile-weighted mean of GOPOutcome.EstimateErr → served_share, sim_joules_per_gop on churn_overload"},
	{"sched.solves_per_round", "count", "lower", 0, "wrapped-allocator calls ÷ rounds (1 − memo hit ratio, above 1 when the ladder re-solves) → core.round_ms_p50 on churn_overload"},
	{"sched.allocate_us_p50", "us", "lower", 0, "median wrapped-allocator call → core.round_ms_p50 on churn_overload"},
	{"sched.busy_share", "share", "lower", 0, "Σ allocator time ÷ Σ round wall → core.round_ms_p50 on churn_overload"},
	{"mpsoc.simulate_slot_us", "us", "lower", 0, "probe: Platform.SimulateSlot on the last allocation's plans → core.round_ms_p50 on churn_overload"},
	{"core.round_ms_p50", "ms", "lower", 0, "median wall time of one serving round (previous hook return → this hook entry), all units pooled, deflated (demoted from end to end: see README) → what a served GOP waits; frames_per_s"},
	{"core.round_ms_p90", "ms", "lower", 0, "p90 wall time of one serving round, all units pooled, deflated (demoted from end to end: see README) → follows the heaviest clip and sessions per round"},
	{"core.round_self_share", "share", "lower", 0, "round wall not covered by source, allocator and sink spans (prepare, encode, settle: inside the program) → core.round_ms_p90"},
	{"core.source_busy_share", "share", "lower", 0, "Σ FrameSource.Frame spans ÷ Σ round wall; must stay ≈0 (guards fixture leakage)"},
	{"core.admitted_per_round_mean", "count", "higher", 0, "admitted sessions per round → core.round_ms_p90, served_share on churn_overload"},
	{"core.ladder_escalations", "count", "lower", 0, "ladder rungs climbed in the window → full_quality_share on churn_overload"},
	{"core.timed_out", "count", "lower", 0, "sessions whose queue deadline expired → served_share on churn_overload"},
	{"core.preempted", "count", "lower", 0, "sessions pushed down the ladder by a higher priority class → full_quality_share on churn_overload"},
	{"serve.first_gop_ms_p50", "ms", "lower", 0, "median of Submit return → the session's first GOP at the sink, deflated (demoted from end to end: see README) → what a user waits for the first picture"},
	{"serve.submit_us_p50", "us", "lower", 0, "median Fleet.SubmitWith call → serve.first_gop_ms_p50 on churn_overload"},
	{"serve.sink_us_per_event", "us", "lower", 0, "time inside the attached sinks ÷ deliveries → core.round_ms_p50 on churn_overload"},
	{"serve.sink_busy_share", "share", "lower", 0, "Σ sink time ÷ Σ round wall → core.round_ms_p50 on churn_overload"},
	{"serve.sink_events", "count", "lower", 0, "deliveries to the attached sinks in the window"},
	{"serve.jsonl_dropped", "count", "lower", 0, "lines the buffered JSONL sink dropped (must stay 0)"},
	{"metrics.sink_us_per_event", "us", "lower", 0, "time inside metrics.Sink ÷ deliveries → core.round_ms_p50 on churn_overload"},
	{"metrics.render_ms", "ms", "lower", 0, "probe: WritePrometheus on the pass's final registry → none end to end (scrape cost)"},
	{"metrics.series", "count", "lower", 0, "sample lines in that rendering"},
	{"tenancy.admit_ns", "ns", "lower", 0, "probe: Registry.Admit → serve.first_gop_ms_p50 on churn_overload"},
	{"dist.submit_rtt_ms_p50", "ms", "lower", 0, "median routed submit through the master, client side → serve.first_gop_ms_p50 on dist_live only"},
	{"dist.heartbeats", "count", "lower", 0, "heartbeats the agents sent in the window → cpu_ms_per_frame on dist_live only"},
	{"dist.heartbeat_bytes_mean", "B", "lower", 0, "mean heartbeat body (loads + every live session's checkpoint + LUTs) → cpu_ms_per_frame on dist_live only"},
	{"dist.wire_marshal_us", "us", "lower", 0, "probe: json.Marshal of a SessionWire a heartbeat carried → cpu_ms_per_frame on dist_live only"},
	{"dist.wire_restore_us", "us", "lower", 0, "probe: SessionWire.Restore of the same → failover time (not measured end to end)"},
	{"dist.retries", "count", "lower", 0, "requests the retrying client would repeat (transport errors, 5xx, 429)"},
	{"runtime.allocs_per_frame", "count", "lower", 0, "MemStats.Mallocs growth ÷ frames → alloc_kb_per_frame, core.round_ms_p90 everywhere"},
	{"runtime.gc_cycles", "count", "lower", 0, "GC cycles in the window → core.round_ms_p90 everywhere"},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0, "stop-the-world pause total in the window → core.round_ms_p90 everywhere"},
	{"runtime.heap_peak_mb", "MB", "lower", 0, "MemStats.HeapSys when the window closed"},
	{"host.slowdown", "ratio", "lower", 0, "S: mean ÷ floor of the reference kernel's wall time over the window; every wall-clock timing is raw ÷ S"},
	{"host.cpu_slowdown", "ratio", "lower", 0, "the same ratio in the kernel's own thread CPU time; every CPU-time metric is raw ÷ it"},
	{"host.ref_offcpu_share", "share", "lower", 0, "share of the kernel's wall time in which its thread was not running: another process on the box held the core (above 0.10 the run is flagged)"},
	{"host.ref_ms_min", "ms", "lower", 0, "the reference kernel's fastest run in this process (the floor)"},
	{"host.ref_samples", "count", "higher", 0, "reference-kernel samples behind S"},
	{"host.frames_per_s_raw", "1/s", "higher", 0, "frames_per_s before deflation"},
	{"host.round_ms_p50_raw", "ms", "lower", 0, "core.round_ms_p50 before deflation"},
	{"host.gomaxprocs", "count", "higher", 0, "GOMAXPROCS of the run"},
	{"trace.overhead_share", "share", "lower", 0, "1 − traced ÷ untraced frames_per_s at the same length and seed"},
}
