// Command wallbench is the repository's wall-clock benchmark. It runs one
// workload against the engine in process, checks every answer, and prints
// its metrics; see README.md for the workloads, the metrics and how to
// compare two commits with it.
//
//	bash wallbench/run.sh --workload tpch --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. An untraced run (--trace 0)
// reports the end-to-end metrics, a traced run (--trace 1) the per-layer
// metrics and a span file. The exit code is 0 only when every answer was
// right.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	out      string
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var secs float64
	var traced int
	flag.StringVar(&cfg.workload, "workload", "", "tpch, serve-repeat or serve-adhoc")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the catalog and the statement streams")
	flag.Float64Var(&secs, "seconds", 20, "length of the measured phase in seconds")
	flag.IntVar(&traced, "trace", 0, "1 = traced run reporting per-layer metrics and writing spans")
	flag.StringVar(&cfg.out, "out", ".bench_build/wallbench-out", "directory for the span files and scratch catalogs")
	flag.Parse()
	cfg.seconds = time.Duration(secs * float64(time.Second))
	cfg.traced = traced == 1
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		return 2
	}

	var res *result
	var err error
	switch cfg.workload {
	case "tpch":
		res, err = runTPCH(cfg)
	case "serve-repeat", "serve-adhoc":
		res, err = runServe(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want tpch, serve-repeat or serve-adhoc)", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		return 1
	}
	res.set("fail_ratio", float64(res.failed)/float64(max(res.attempted, 1)))

	defs := e2eMetrics
	if cfg.traced {
		defs = layerMetrics
	}
	out := map[string]any{}
	for _, d := range defs {
		v, ok := res.values[d.Name]
		if !ok {
			// Layers the workload never calls into did no work.
			if !cfg.traced {
				fmt.Fprintf(os.Stderr, "wallbench: metric %s was not measured\n", d.Name)
				return 1
			}
			v = 0
		}
		out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		switch n, ok := res.samples[d.Name]; {
		case ok:
			fmt.Fprintf(os.Stderr, "%-32s %14.6g %-6s (n=%d)\n", d.Name, v, d.Unit, n)
		case d.Moves != "":
			fmt.Fprintf(os.Stderr, "%-32s %14.6g %-6s moves %s on %s\n", d.Name, v, d.Unit, d.Moves, d.On)
		default:
			fmt.Fprintf(os.Stderr, "%-32s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	// The drift guard: a fixed loop timed before and after the workload.
	fmt.Fprintf(os.Stderr, "host calibration loop: %.3f ms before, %.3f ms after\n",
		res.values["host.calib_ms"], res.values["host.calib_after_ms"])
	correct := res.failed == 0 && res.attempted > 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// reportLayers turns a traced run's spans and front-end probe into the
// per-layer metrics and writes the spans out. Span totals are divided by
// units — passes over the TPC-H queries, or SQL statements — and the
// per-call figures by calls, the number of traced queries.
func reportLayers(res *result, cfg config, rec *recorder, fe *frontEnd, units, calls float64) error {
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, rec.spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	lt, err := selfTimes(rec.spans)
	if err != nil {
		return fmt.Errorf("span accounting: %w", err)
	}
	fmt.Fprintf(os.Stderr, "wallbench: %d spans in %s; self time by layer (ms, traced wall %.3f):\n",
		len(rec.spans), path, float64(lt.wall)/1e6)
	keys := make([]string, 0, len(lt.self))
	for k := range lt.self {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-28s %12.3f  (%d spans)\n", k, float64(lt.self[k])/1e6, lt.count[k])
	}

	frag := func(p string) string { return "exec.fragment." + p }
	for _, p := range execPaths[:4] {
		res.set("exec.frag_self_ms."+p, float64(lt.self[frag(p)])/1e6/units)
		res.set("exec.items."+p, float64(lt.items[frag(p)])/units)
	}
	for _, p := range execPaths[:3] {
		if n := lt.items[frag(p)]; n > 0 {
			res.set("exec.ns_per_item."+p, float64(lt.self[frag(p)])/float64(n))
		}
	}
	for _, p := range execPaths {
		res.set("exec.frag_count."+p, float64(lt.count[frag(p)])/units)
	}
	specialized := lt.count[frag("batch")] + lt.count[frag("fused")]
	if all := specialized + lt.count[frag("interp")] + lt.count[frag("unknown")]; all > 0 {
		res.set("exec.specialized_ratio", float64(specialized)/float64(all))
	}
	// RunPrepared's self time is what it does outside the engine trace:
	// assembling the result rows.
	res.set("rel.assemble_us", float64(lt.self["exec.run_prepared"])/1e3/calls)

	if fe.plans > 0 {
		plans := float64(fe.plans)
		res.set("rel.lower_us", float64(fe.lower.Nanoseconds())/1e3/plans)
		res.set("compile.compile_us", float64(fe.compile.Nanoseconds())/1e3/plans)
		res.set("compile.fragments_per_plan", float64(fe.fragments)/plans)
		res.set("compile.pruned_steps", float64(fe.pruned)/fe.units)
		res.set("exec.first_run_premium_us", float64((fe.firstRun-fe.repeatRun).Nanoseconds())/1e3/plans)
	}
	return nil
}
