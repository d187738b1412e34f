package main

import "fmt"

// metricDef is one reported metric. For a per-layer metric, Moves names
// the end-to-end metrics it should move and On the workload where it
// should move them; the README's layer table is the prose form of this
// list.
type metricDef struct {
	Name, Unit, Better string
	Moves, On          string
}

// e2eMetrics are reported by untraced runs (--trace 0) of every workload.
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "qps", Unit: "1/s", Better: "higher"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "p99_ms", Unit: "ms", Better: "lower"},
	{Name: "geomean_ms", Unit: "ms", Better: "lower"},
	{Name: "vs_hyper", Unit: "ratio", Better: "lower"},
	{Name: "peak_heap_mb", Unit: "MiB", Better: "lower"},
}

const (
	onTPCH  = "tpch"
	onServe = "serve-repeat,serve-adhoc"
	onAdhoc = "serve-adhoc"
	onAll   = "tpch,serve-repeat,serve-adhoc"
)

// execPaths are the fragment execution paths a trace step reports.
var execPaths = []string{"interp", "batch", "fused", "bulk", "pruned"}

// layerMetrics are reported by traced runs (--trace 1) of every workload;
// a layer a workload does not exercise reads 0.
var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []metricDef {
	var ms []metricDef
	add := func(name, unit, better, moves, on string) {
		ms = append(ms, metricDef{name, unit, better, moves, on})
	}
	for _, p := range execPaths[:4] {
		add("exec.frag_self_ms."+p, "ms", "lower", "geomean_ms,vs_hyper,qps", onTPCH)
		add("exec.items."+p, "count", "higher", "geomean_ms,vs_hyper", onTPCH)
	}
	for _, p := range execPaths[:3] {
		add("exec.ns_per_item."+p, "ns", "lower", "geomean_ms,vs_hyper,qps", onTPCH)
	}
	for _, p := range execPaths {
		add("exec.frag_count."+p, "count", "higher", "vs_hyper", onTPCH)
	}
	add("exec.specialized_ratio", "ratio", "higher", "vs_hyper", onTPCH)
	add("exec.run_ms", "ms", "lower", "geomean_ms,vs_hyper", onTPCH)
	add("exec.slower_than_interp", "count", "lower", "geomean_ms,vs_hyper", onTPCH)
	add("interp.geomean_ms", "ms", "lower", "geomean_ms,vs_hyper", onTPCH)
	add("hyper.geomean_ms", "ms", "lower", "vs_hyper", onTPCH)
	add("exec.first_run_premium_us", "us", "lower", "p50_ms,qps", onAdhoc)
	add("sql.parse_us", "us", "lower", "p50_ms,qps", onAdhoc)
	add("sql.plan_us", "us", "lower", "p50_ms,qps", onAdhoc)
	add("rel.lower_us", "us", "lower", "p50_ms,qps", onAdhoc)
	add("compile.compile_us", "us", "lower", "p50_ms,qps", onAdhoc)
	add("compile.fragments_per_plan", "count", "lower", "p50_ms,qps", onAdhoc)
	add("compile.pruned_steps", "count", "higher", "p50_ms,qps", onAdhoc)
	for _, n := range []string{"queue", "compile", "exec", "other"} {
		add("serve."+n+"_us", "us", "lower", "p50_ms,p99_ms,qps", onServe)
	}
	add("serve.plan_cache_hit_ratio", "ratio", "higher", "p50_ms,p99_ms,qps", onServe)
	add("serve.response_bytes", "bytes", "lower", "p50_ms,p99_ms,qps", onServe)
	add("rel.assemble_us", "us", "lower", "geomean_ms", onTPCH)
	add("vector.pool_hit_ratio", "ratio", "higher", "p99_ms,peak_heap_mb", onServe)
	add("vector.alloc_bytes_per_query", "bytes", "lower", "p99_ms,peak_heap_mb", onServe)
	add("vector.mallocs_per_query", "count", "lower", "p99_ms,peak_heap_mb", onServe)
	add("storage.generate_ms", "ms", "lower", "setup_s", onAll)
	add("storage.load_ms", "ms", "lower", "setup_s", onAll)
	add("trace.overhead_ratio", "ratio", "lower", "", onAll)
	add("host.calib_ms", "ms", "lower", "", onAll)
	add("host.calib_after_ms", "ms", "lower", "", onAll)
	add("fail_ratio", "ratio", "lower", "", onAll)
	for _, q := range tpchQueries {
		add(queryMetric(q, "ms"), "ms", "lower", "geomean_ms", onTPCH)
		add(queryMetric(q, "vs_hyper"), "ratio", "lower", "vs_hyper", onTPCH)
	}
	return ms
}

func queryMetric(q int, what string) string { return fmt.Sprintf("query.q%02d.%s", q, what) }

// result is what one run reports.
type result struct {
	attempted, failed int
	values            map[string]float64
	// samples is the number of measurements behind each end-to-end
	// metric, printed beside it.
	samples map[string]int
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) setN(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}
