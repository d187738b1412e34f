package main

import (
	"context"
	"os"
	"time"

	"voodoo/internal/exec"
	"voodoo/internal/rel"
	"voodoo/internal/storage"
	"voodoo/internal/tpch"
	"voodoo/internal/trace"
)

// setupCatalog generates the seed's catalog, saves it and loads it back
// with storage.Load, as a daemon started with -data would, and returns
// the loaded catalog with the time each half took.
func setupCatalog(seed int64, dir string) (cat *storage.Catalog, gen, load time.Duration, err error) {
	start := time.Now()
	generated := tpch.Generate(catalogConfig(seed))
	gen = time.Since(start)

	tmp, err := os.MkdirTemp(dir, "catalog-")
	if err != nil {
		return nil, 0, 0, err
	}
	defer os.RemoveAll(tmp)
	start = time.Now()
	if err := generated.Save(tmp); err != nil {
		return nil, 0, 0, err
	}
	cat, err = storage.Load(tmp)
	load = time.Since(start)
	return cat, gen, load, err
}

// stepRunner is the rel.Runner handed to the TPC-H query functions and
// used for SQL statements in process. It runs each plan through
// Engine.Prepare and Engine.RunPrepared and sums the RunPrepared time;
// with rec set it records both calls as spans under parent, with the
// engine's trace of the run beneath RunPrepared.
type stepRunner struct {
	eng *rel.Engine

	rec           *recorder
	query, parent int

	run time.Duration
}

func (r *stepRunner) Catalog() *storage.Catalog { return r.eng.Cat }

func (r *stepRunner) Run(q rel.Query) (*rel.Result, *exec.Stats, error) {
	t0 := time.Now()
	pr, err := r.eng.Prepare(q)
	t1 := time.Now()
	if err != nil {
		return nil, nil, err
	}
	eng := *r.eng
	var tr *trace.Trace
	if r.rec != nil {
		eng.TraceSink = func(t *trace.Trace) { tr = t }
	}
	res, stats, err := eng.RunPrepared(context.Background(), pr)
	t2 := time.Now()
	r.run += t2.Sub(t1)
	if r.rec != nil {
		r.rec.add(span{Parent: r.parent, Query: r.query, Name: "rel.prepare", Start: r.rec.at(t0), End: r.rec.at(t1)})
		run := r.rec.add(span{Parent: r.parent, Query: r.query, Name: "exec.run_prepared", Start: r.rec.at(t1), End: r.rec.at(t2)})
		if tr != nil {
			r.rec.addTrace(r.query, run, r.rec.at(t1), tr)
		}
	}
	return res, stats, err
}

// frontEnd accumulates the per-plan costs a probeRunner measures.
type frontEnd struct {
	// units is what the pruned-step count is reported per: passes over
	// the TPC-H queries, or SQL statements.
	units               float64
	plans               int
	lower, compile      time.Duration
	fragments, pruned   int
	firstRun, repeatRun time.Duration
}

// probeRunner is a rel.Runner that splits each plan's preparation into
// its layers by calling them one at a time — rel.Lower, then
// Engine.Plan to compile the lowered program — and runs one Prepared
// twice to price its first run against a repeat.
type probeRunner struct {
	eng *rel.Engine
	fe  *frontEnd
}

func (r *probeRunner) Catalog() *storage.Catalog { return r.eng.Cat }

func (r *probeRunner) Run(q rel.Query) (*rel.Result, *exec.Stats, error) {
	t0 := time.Now()
	prog, err := rel.Lower(q, r.eng.Cat)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	plan, err := r.eng.Plan(prog)
	if err != nil {
		return nil, nil, err
	}
	t2 := time.Now()
	pr, err := r.eng.Prepare(q)
	if err != nil {
		return nil, nil, err
	}
	t3 := time.Now()
	if _, _, err := r.eng.RunPrepared(context.Background(), pr); err != nil {
		return nil, nil, err
	}
	t4 := time.Now()
	res, stats, err := r.eng.RunPrepared(context.Background(), pr)
	t5 := time.Now()
	if err != nil {
		return nil, nil, err
	}
	// A third, traced run counts the steps zone maps pruned.
	eng := *r.eng
	eng.TraceSink = func(t *trace.Trace) {
		for _, st := range t.Steps {
			if st.Kind == trace.KindPruned {
				r.fe.pruned++
			}
		}
	}
	if _, _, err := eng.RunPrepared(context.Background(), pr); err != nil {
		return nil, nil, err
	}

	r.fe.plans++
	r.fe.lower += t1.Sub(t0)
	r.fe.compile += t2.Sub(t1)
	r.fe.fragments += len(plan.Kernel().Frags)
	r.fe.firstRun += t4.Sub(t3)
	r.fe.repeatRun += t5.Sub(t4)
	return res, stats, nil
}
