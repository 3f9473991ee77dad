package main

import "time"

// perLayer lists the metrics a traced run reports, in print order. A layer
// a workload does not exercise reports 0. Units of per-operation times
// name the operation ("us/step"), since the same names are reported for
// every workload.
var perLayer = []metricDef{
	{"trace.overhead_pct", "%"},
	{"workload.gen_ms_p50", "ms"},

	{"sim.runs", "count"},
	{"sim.slots", "count"},
	{"sim.tx_per_slot", "ratio"},
	{"sim.step_us_p50", "us/step"},
	{"sim.step_us_p99", "us/step"},
	{"sim.ns_per_node_slot", "ns/node-slot"},
	{"sim.new_ms_p50", "ms/sim"},
	{"sim.new_alloc_mb", "MB/sim"},

	{"sim.field.rebuild_slots", "count"},
	{"sim.field.delta_slots", "count"},
	{"sim.field.reused_slots", "count"},
	{"sim.field.epoch_rebuilds", "count"},
	{"sim.field.lazy_evals", "count"},

	{"sim.index.tx_queries", "count"},
	{"sim.index.candidates", "count"},
	{"sim.index.neighbor_queries", "count"},
	{"sim.index.count_queries", "count"},
	{"sim.index.decodes", "count"},
	{"sim.index.useful_ratio", "ratio"},
	{"sim.index.scan_runs", "count"},

	{"sim.wheel.windows", "count"},
	{"sim.wheel.skipped_slots", "count"},

	{"faults.drop_recv_calls", "count"},
	{"faults.seized_calls", "count"},
	{"faults.events", "count"},

	{"dynamics.apply_us_p50", "us/tick"},

	{"jobs.jobs", "count"},
	{"jobs.submit_ms_p50", "ms/req"},
	{"jobs.queue_wait_ms_p50", "ms/job"},
	{"jobs.queue_wait_ms_p90", "ms/job"},
	{"jobs.run_ms_p50", "ms/job"},
	{"jobs.result_ms_p50", "ms/req"},
	{"jobs.shed", "count"},
	{"jobs.attempts", "count"},

	{"checkpoint.lookups", "count"},
	{"checkpoint.hits", "count"},
	{"checkpoint.misses", "count"},
	{"checkpoint.hit_ratio", "ratio"},
	{"checkpoint.stores", "count"},
	{"checkpoint.dedup_waits", "count"},
	{"checkpoint.dedup_hits", "count"},
	{"checkpoint.journal_bytes", "bytes"},

	{"grid.cells", "count"},
	{"grid.cell_ms_p50", "ms/cell"},

	{"trace.bytes_written", "bytes"},
	{"trace.query_ms_p50", "ms/req"},
	{"trace.query.bytes_scanned", "bytes"},
	{"trace.query.bytes_skipped", "bytes"},
	{"trace.query.prune_x", "ratio"},

	{"load.lateness_ms_p50", "ms/req"},
	{"load.lateness_ms_max", "ms/req"},

	{"cpu.sim", "%"},
	{"cpu.pathloss", "%"},
	{"cpu.model", "%"},
	{"cpu.sensing", "%"},
	{"cpu.geom", "%"},
	{"cpu.core", "%"},
	{"cpu.baseline", "%"},
	{"cpu.faults", "%"},
	{"cpu.dynamics", "%"},
	{"cpu.metrics", "%"},
	{"cpu.experiment", "%"},
	{"cpu.checkpoint", "%"},
	{"cpu.jobs", "%"},
	{"cpu.trace", "%"},
	{"cpu.rng", "%"},
	{"cpu.metric", "%"},
	{"cpu.runtime", "%"},
	{"cpu.other", "%"},
}

// layerMetrics derives the per-layer metrics, except the overhead and the
// CPU shares, from the traced rounds and their spans. Counts are those of
// the first traced round, which runs input set 0, so they repeat exactly
// for a seed wherever the program is deterministic; timings pool every
// span.
func layerMetrics(rs []*round, tr *tracer) map[string]metric {
	count := func(name string) float64 {
		if len(rs) == 0 {
			return 0
		}
		return rs[0].counts[name]
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	q := func(xs []float64, p float64) float64 { return orZero(quantile(xs, p)) }
	span := func(name string, unit time.Duration, p float64) float64 {
		return q(tr.durations(name, unit), p)
	}

	stepNs, nodeSlots := 0.0, 0.0
	for _, d := range tr.durations("sim.step", time.Nanosecond) {
		stepNs += d
	}
	for _, r := range rs {
		nodeSlots += r.counts["sim.node_slots"]
	}
	scanned, skipped := count("trace.query.bytes_scanned"), count("trace.query.bytes_skipped")

	v := map[string]float64{
		"workload.gen_ms_p50":  span("workload.gen", time.Millisecond, 0.5),
		"sim.tx_per_slot":      ratio(count("sim.tx"), count("sim.slots")),
		"sim.step_us_p50":      span("sim.step", time.Microsecond, 0.5),
		"sim.step_us_p99":      span("sim.step", time.Microsecond, 0.99),
		"sim.ns_per_node_slot": ratio(stepNs, nodeSlots),
		"sim.new_ms_p50":       span("sim.new", time.Millisecond, 0.5),
		"sim.new_alloc_mb":     q(pooled(rs, "sim.new_alloc_mb"), 0.5),

		"sim.index.useful_ratio": ratio(count("sim.index.decodes"), count("sim.index.candidates")),
		"dynamics.apply_us_p50":  span("dynamics.apply", time.Microsecond, 0.5),

		"jobs.submit_ms_p50":     span("http.submit", time.Millisecond, 0.5),
		"jobs.queue_wait_ms_p50": span("jobs.queue", time.Millisecond, 0.5),
		"jobs.queue_wait_ms_p90": span("jobs.queue", time.Millisecond, 0.9),
		"jobs.run_ms_p50":        span("jobs.run", time.Millisecond, 0.5),
		"jobs.result_ms_p50":     span("http.result", time.Millisecond, 0.5),

		"checkpoint.hit_ratio": ratio(count("checkpoint.hits"), count("checkpoint.lookups")),
		"grid.cell_ms_p50":     q(pooled(rs, "grid.cell_ms"), 0.5),

		"trace.query_ms_p50":   span("http.query", time.Millisecond, 0.5),
		"trace.query.prune_x":  ratio(scanned+skipped, scanned),
		"load.lateness_ms_p50": q(pooled(rs, "load.lateness_ms"), 0.5),
		"load.lateness_ms_max": q(pooled(rs, "load.lateness_ms"), 1),
	}
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		x, ok := v[d.name]
		if !ok {
			x = count(d.name)
		}
		out[d.name] = metric{x, d.unit}
	}
	return out
}

// orZero maps the NaN of an empty sample to 0: a layer the workload never
// entered did no work.
func orZero(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}
