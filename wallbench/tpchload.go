package main

import (
	"fmt"
	"os"
	"time"

	"voodoo/internal/baseline/hyper"
	"voodoo/internal/rel"
	"voodoo/internal/storage"
	"voodoo/internal/tpch"
)

// tpchSide holds a value per run of each of the 14 queries: one engine's
// wall times in ms, or compiled/hyper ratios.
type tpchSide map[int][]float64

func (s tpchSide) add(q int, d time.Duration) { s[q] = append(s[q], ms(d)) }

// geomean is the geometric mean over the queries of each query's median.
func (s tpchSide) geomean() float64 {
	var meds []float64
	for _, q := range tpchQueries {
		meds = append(meds, median(s[q]))
	}
	return geomean(meds)
}

// tpchBench runs the tpch workload: the 14 TPC-H queries on the compiled
// backend, each paired with the same query on the HyPer-style engine.
type tpchBench struct {
	cfg   config
	cat   *storage.Catalog
	funcs map[int]tpch.QueryFunc
	res   *result
}

func runTPCH(cfg config) (*result, error) {
	b := &tpchBench{cfg: cfg, funcs: map[int]tpch.QueryFunc{}, res: newResult()}
	for _, q := range tpchQueries {
		f, err := tpch.Query(q)
		if err != nil {
			return nil, err
		}
		b.funcs[q] = f
	}
	calibBefore := calibrate()
	if err := b.setup(); err != nil {
		return nil, err
	}
	var err error
	if cfg.traced {
		err = b.layers()
	} else {
		err = b.endToEnd()
	}
	if err != nil {
		return nil, err
	}
	b.res.set("host.calib_ms", calibBefore)
	b.res.set("host.calib_after_ms", calibrate())
	return b.res, nil
}

// setup prepares the catalog and warms both engines with one pass of
// every query, setupReps times over; setup_s is the median.
func (b *tpchBench) setup() error {
	var setups, gens, loads []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		cat, gen, load, err := setupCatalog(b.cfg.seed, b.cfg.out)
		if err != nil {
			return fmt.Errorf("catalog: %w", err)
		}
		for _, q := range tpchQueries {
			if _, _, err := b.funcs[q](&rel.Engine{Cat: cat, Backend: rel.Compiled}); err != nil {
				return fmt.Errorf("warm-up q%d: %w", q, err)
			}
			if _, _, err := b.funcs[q](&hyper.Engine{Cat: cat}); err != nil {
				return fmt.Errorf("warm-up q%d on hyper: %w", q, err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		gens = append(gens, ms(gen))
		loads = append(loads, ms(load))
		b.cat = cat
	}
	b.res.setN("setup_s", median(setups), len(setups))
	b.res.set("storage.generate_ms", median(gens))
	b.res.set("storage.load_ms", median(loads))
	return nil
}

// check counts one answer to query q, which is right when the run
// succeeded and its result matches hyper's answer want.
func (b *tpchBench) check(q int, engine string, got *rel.Result, err error, want answer) {
	b.res.attempted++
	if err == nil {
		err = numericAnswer(got).diff(want)
	}
	if err != nil {
		b.res.failed++
		fmt.Fprintf(os.Stderr, "wallbench: q%d on %s: %v\n", q, engine, err)
	}
}

// hyperAnswers answers every query once on hyper, for the runs that are
// not paired with hyper.
func (b *tpchBench) hyperAnswers() (map[int]answer, error) {
	want := map[int]answer{}
	for _, q := range tpchQueries {
		res, _, err := b.funcs[q](&hyper.Engine{Cat: b.cat})
		if err != nil {
			return nil, fmt.Errorf("q%d on hyper: %w", q, err)
		}
		want[q] = numericAnswer(res)
	}
	return want, nil
}

// pairs runs passes over the 14 queries until the deadline (at least
// one), timing each compiled run next to the same query on hyper and
// alternating which of the two goes first from pass to pass. Each
// compiled answer is checked against hyper's from the same pair. run
// times the compiled side; it returns the result and the time it took.
func (b *tpchBench) pairs(deadline time.Time, run func(q int) (*rel.Result, time.Duration, error)) (comp, hyp tpchSide, ratio tpchSide, passes int) {
	comp, hyp, ratio = tpchSide{}, tpchSide{}, tpchSide{}
	hy := &hyper.Engine{Cat: b.cat}
	for ; passes == 0 || time.Now().Before(deadline); passes++ {
		for _, q := range tpchQueries {
			var cres, hres *rel.Result
			var cerr, herr error
			var cd, hd time.Duration
			runHyper := func() {
				start := time.Now()
				hres, _, herr = b.funcs[q](hy)
				hd = time.Since(start)
			}
			if passes%2 == 1 {
				runHyper()
			}
			cres, cd, cerr = run(q)
			if passes%2 == 0 {
				runHyper()
			}
			if herr != nil {
				b.check(q, "hyper", nil, herr, answer{})
			} else {
				b.check(q, "compiled", cres, cerr, numericAnswer(hres))
			}
			comp.add(q, cd)
			hyp.add(q, hd)
			ratio[q] = append(ratio[q], float64(cd)/float64(hd))
		}
	}
	return comp, hyp, ratio, passes
}

func (b *tpchBench) endToEnd() error {
	eng := &rel.Engine{Cat: b.cat, Backend: rel.Compiled}
	heap := startHeapSampler()
	start := time.Now()
	comp, _, ratio, _ := b.pairs(start.Add(b.cfg.seconds), func(q int) (*rel.Result, time.Duration, error) {
		t := time.Now()
		res, _, err := b.funcs[q](eng)
		return res, time.Since(t), err
	})
	b.res.setN("peak_heap_mb", heap.finish(), 1)

	n, total := 0, 0.0
	var meds []float64
	for _, q := range tpchQueries {
		n += len(comp[q])
		for _, v := range comp[q] {
			total += v
		}
		meds = append(meds, median(comp[q]))
	}
	b.res.setN("qps", float64(n)/(total/1000), n)
	// The pooled times form one cluster per query: their median falls in
	// the gap between two clusters and their tail in the slowest query's
	// few slowest runs, and both jump from run to run. The percentiles are
	// taken over the per-query medians instead: p50 is the typical query,
	// p99 the slowest.
	b.res.setN("p50_ms", median(meds), n)
	b.res.setN("p99_ms", quantile(meds, 0.99), n)
	b.res.setN("geomean_ms", geomean(meds), n)
	b.res.setN("vs_hyper", ratio.geomean(), n)
	return nil
}

// layers is the traced run: an untraced phase for the per-query, interp
// and hyper figures, then a traced phase that records spans.
func (b *tpchBench) layers() error {
	half := b.cfg.seconds / 2
	want, err := b.hyperAnswers()
	if err != nil {
		return err
	}

	// Untraced phase: each compiled query through stepRunner (Prepare and
	// RunPrepared timed apart), paired with hyper, and timed once more on
	// the reference interpreter.
	eng := &rel.Engine{Cat: b.cat, Backend: rel.Compiled}
	interp := &rel.Engine{Cat: b.cat, Backend: rel.Interpreted}
	it := tpchSide{}
	var allocs allocCounter
	var run time.Duration
	var queries int
	comp, hyp, ratio, passes := b.pairs(time.Now().Add(half), func(q int) (*rel.Result, time.Duration, error) {
		sr := &stepRunner{eng: eng}
		a0 := readAllocs()
		t := time.Now()
		res, _, err := b.funcs[q](sr)
		d := time.Since(t)
		allocs = allocs.add(readAllocs().sub(a0))
		queries++
		run += sr.run

		t = time.Now()
		ires, _, ierr := b.funcs[q](interp)
		it.add(q, time.Since(t))
		b.check(q, "interp", ires, ierr, want[q])
		return res, d, err
	})
	b.res.set("exec.run_ms", ms(run)/float64(passes))
	b.res.set("interp.geomean_ms", it.geomean())
	b.res.set("hyper.geomean_ms", hyp.geomean())
	slower := 0
	for _, q := range tpchQueries {
		b.res.set(queryMetric(q, "ms"), median(comp[q]))
		b.res.set(queryMetric(q, "vs_hyper"), median(ratio[q]))
		if median(comp[q]) > median(it[q]) {
			slower++
		}
	}
	b.res.set("exec.slower_than_interp", float64(slower))
	b.res.set("vector.alloc_bytes_per_query", float64(allocs.bytes)/float64(queries))
	b.res.set("vector.mallocs_per_query", float64(allocs.objects)/float64(queries))
	fmt.Fprintf(os.Stderr, "wallbench: untraced phase: %d passes\n", passes)

	// Front-end probe: one pass that calls lowering and compilation apart.
	fe := &frontEnd{units: 1}
	for _, q := range tpchQueries {
		res, _, err := b.funcs[q](&probeRunner{eng: eng, fe: fe})
		b.check(q, "compiled (probe)", res, err, want[q])
	}

	// Traced phase: every pass runs each query untraced and traced, the
	// two in alternating order, so trace.overhead_ratio compares the same
	// work.
	rec := newRecorder()
	var untraced, traced time.Duration
	tracedPasses := 0
	deadline := time.Now().Add(half)
	for ; tracedPasses == 0 || time.Now().Before(deadline); tracedPasses++ {
		for _, q := range tpchQueries {
			runUntraced := func() {
				t := time.Now()
				res, _, err := b.funcs[q](&stepRunner{eng: eng})
				untraced += time.Since(t)
				b.check(q, "compiled", res, err, want[q])
			}
			if tracedPasses%2 == 1 {
				runUntraced()
			}
			qid := rec.newQuery()
			sr := &stepRunner{eng: eng, rec: rec, query: qid}
			t0 := time.Now()
			root := rec.add(span{Query: qid, Name: "query", Path: fmt.Sprintf("q%02d", q), Start: rec.at(t0)})
			sr.parent = root
			res, _, err := b.funcs[q](sr)
			t1 := time.Now()
			rec.end(root, t1)
			traced += t1.Sub(t0)
			b.check(q, "compiled (traced)", res, err, want[q])
			if tracedPasses%2 == 0 {
				runUntraced()
			}
		}
	}
	b.res.set("trace.overhead_ratio", float64(traced)/float64(untraced))
	fmt.Fprintf(os.Stderr, "wallbench: traced phase: %d passes\n", tracedPasses)
	return reportLayers(b.res, b.cfg, rec, fe, float64(tracedPasses), float64(tracedPasses*len(tpchQueries)))
}
