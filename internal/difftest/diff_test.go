package difftest

import (
	"context"
	"sync"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/core"
	"voodoo/internal/exec"
	"voodoo/internal/interp"
	"voodoo/internal/vector"
)

// diffPool backs the pooled combo: one pool shared by every pooled run
// (and, in the concurrency test, by every goroutine), exactly as a server
// process shares one pool across requests.
var diffPool = vector.NewPool(0)

// configs is every option combination of the compiling backend the
// differential test checks against the interpreter. ScatterParallel
// stays off: parallel scatter resolves write conflicts in a
// backend-specific order, so it is only enabled by frontends that prove
// position uniqueness. The pooled combo runs the default options with
// recycled kernel buffers — results must stay bit-identical to the heap
// combos, or buffer reuse is leaking state between queries. The
// morsel-sweep combo runs with 4 workers across pathological morsel
// sizes — results must stay bit-identical at every scheduling
// granularity, or morsel claim order is leaking into results. The
// specialize-sweep combo crosses specialization modes {off, batch-only,
// full} with pathological morsel sizes — the interpreter is the
// specialization layer's oracle, so results must stay bit-identical on
// every (path, granularity) pair, or a batch primitive or fused fast
// path diverged from per-element semantics. It runs the whole cross
// twice: a fragment smaller than one batch interprets its first run and
// runs compiled from its second, and both tiers must agree.
var configs = []struct {
	name    string
	opt     compile.Options
	pooled  bool
	morsels []int           // when set, the plan runs once per morsel size
	specs   []exec.SpecMode // when set, crossed with morsels (default: Auto)
	twice   bool            // run the morsel × spec cross twice
}{
	{name: "compiled", opt: compile.Options{}},
	{name: "predicated", opt: compile.Options{Predication: true}},
	{name: "bulk", opt: compile.Options{ForceBulk: true}},
	{name: "bulk-predicated", opt: compile.Options{ForceBulk: true, Predication: true}},
	{name: "pooled", opt: compile.Options{}, pooled: true},
	{name: "morsel-sweep", opt: compile.Options{Workers: 4}, morsels: []int{1, 7, 1024, 0}},
	{name: "specialize-sweep", opt: compile.Options{Workers: 4}, morsels: []int{1, 7, 0},
		specs: []exec.SpecMode{exec.SpecializeOff, exec.SpecializeBatchOnly, exec.SpecializeAuto}, twice: true},
}

// runPlan executes a compiled plan under the config's memory regime and
// morsel size; the returned release func recycles pooled buffers and must
// be called after the result has been compared (never before).
func runPlan(ctx context.Context, plan *compile.Plan, pooled bool, morsel int, spec exec.SpecMode) (*compile.Result, func(), error) {
	ro := compile.RunOpts{MorselSize: morsel, Specialize: spec}
	if pooled {
		ro.Pool = diffPool
	}
	res, err := plan.RunWith(ctx, ro)
	if err != nil {
		return nil, func() {}, err
	}
	if pooled {
		return res, res.Release, nil
	}
	return res, func() {}, nil
}

const (
	fullPrograms  = 500
	shortPrograms = 100
	maxReported   = 5 // stop after this many divergences; the rest is noise
)

// TestInterpVsCompiled is the differential harness: every generated
// program must produce bit-identical root values on the interpreter and
// on the compiling backend under all four option combinations. When the
// interpreter rejects a program, every compiled configuration must
// reject it too (at compile or run time), and such programs may not
// exceed 5% of the corpus.
func TestInterpVsCompiled(t *testing.T) {
	n := fullPrograms
	if testing.Short() {
		n = shortPrograms
	}
	ctx := context.Background()
	reported, interpErrs := 0, 0
	for seed := int64(1); seed <= int64(n); seed++ {
		p := Generate(seed)
		ires, ierr := interp.RunContext(ctx, p.Prog, p.St)
		if ierr != nil {
			interpErrs++
		}
		roots := p.Prog.Roots()
		if len(roots) == 0 {
			t.Fatalf("seed %d: generated program has no roots:\n%s", seed, p.Prog)
		}
		for _, cfg := range configs {
			if reported >= maxReported {
				t.Fatalf("stopping after %d divergences", maxReported)
			}
			plan, cerr := compile.Compile(p.Prog, p.St, cfg.opt)
			morsels := cfg.morsels
			if len(morsels) == 0 {
				morsels = []int{0}
			}
			specs := cfg.specs
			if len(specs) == 0 {
				specs = []exec.SpecMode{exec.SpecializeAuto}
			}
			if ierr != nil {
				if cerr != nil {
					continue
				}
				if _, release, rerr := runPlan(ctx, plan, cfg.pooled, morsels[0], specs[0]); rerr == nil {
					release()
					t.Errorf("seed %d %s: interpreter rejects the program (%v) but the compiled plan runs:\n%s",
						seed, cfg.name, ierr, p.Prog)
					reported++
				}
				continue
			}
			if cerr != nil {
				t.Errorf("seed %d %s: compile failed: %v\nprogram:\n%s", seed, cfg.name, cerr, p.Prog)
				reported++
				continue
			}
			reps := 1
			if cfg.twice {
				reps = 2
			}
			for rep := 0; rep < reps; rep++ {
				for _, morsel := range morsels {
					for _, spec := range specs {
						cres, release, rerr := runPlan(ctx, plan, cfg.pooled, morsel, spec)
						if rerr != nil {
							t.Errorf("seed %d %s (morsel=%d spec=%d): run failed: %v\nprogram:\n%s", seed, cfg.name, morsel, spec, rerr, p.Prog)
							reported++
							continue
						}
						for _, ref := range roots {
							iv, cv := ires.Value(ref), cres.Values[ref]
							if cv == nil {
								t.Errorf("seed %d %s (morsel=%d spec=%d): root v%d missing from compiled result\nprogram:\n%s",
									seed, cfg.name, morsel, spec, ref, p.Prog)
								reported++
								break
							}
							if !iv.Equal(cv) {
								t.Errorf("seed %d %s (morsel=%d spec=%d): root v%d diverges\nprogram:\n%s\ninterp:\n%s\ncompiled:\n%s",
									seed, cfg.name, morsel, spec, ref, p.Prog, iv, cv)
								reported++
								break
							}
						}
						release()
					}
				}
			}
		}
	}
	if interpErrs*20 > n {
		t.Errorf("interpreter rejected %d/%d generated programs (budget is 5%%) — the generator has drifted into invalid territory", interpErrs, n)
	}
}

// TestPooledConcurrentIsolation runs under -race in CI: concurrent
// queries drawing from one shared pool must never observe each other's
// released buffers. Each goroutine runs its own generated programs,
// sharing one compiled plan per seed is deliberately avoided — the point
// here is buffer isolation, and the per-goroutine interpreter result is
// the oracle. Poison-on-release (-tags voodoo_poison) turns any
// release-too-early bug into a loud value divergence.
func TestPooledConcurrentIsolation(t *testing.T) {
	const workers = 4
	n := 40
	if testing.Short() {
		n = 10
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seed := int64(1 + w*n); seed <= int64((w+1)*n); seed++ {
				p := Generate(seed)
				ires, ierr := interp.RunContext(ctx, p.Prog, p.St)
				if ierr != nil {
					continue // rejection parity is TestInterpVsCompiled's job
				}
				plan, cerr := compile.Compile(p.Prog, p.St, compile.Options{})
				if cerr != nil {
					continue
				}
				cres, err := plan.RunWith(ctx, compile.RunOpts{Pool: diffPool})
				if err != nil {
					errs <- "seed " + p.Prog.String() + ": pooled run failed: " + err.Error()
					return
				}
				for _, ref := range p.Prog.Roots() {
					iv, cv := ires.Value(ref), cres.Values[ref]
					if cv == nil || !iv.Equal(cv) {
						errs <- "pooled concurrent divergence at seed program:\n" + p.Prog.String()
						cres.Release()
						return
					}
				}
				cres.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestGenerateDeterministic pins the replay contract: the same seed must
// always yield the same program and the same loaded data, or failing
// seeds could not be investigated.
func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 499} {
		a, b := Generate(seed), Generate(seed)
		if a.Prog.String() != b.Prog.String() {
			t.Fatalf("seed %d: program listing differs between runs:\n%s\nvs\n%s", seed, a.Prog, b.Prog)
		}
		if len(a.St) != len(b.St) {
			t.Fatalf("seed %d: storage differs in size", seed)
		}
		for name, av := range a.St {
			bv, ok := b.St[name]
			if !ok || !av.Equal(bv) {
				t.Fatalf("seed %d: loaded vector %q differs between runs", seed, name)
			}
		}
	}
}

// TestGeneratorCoversAlgebra keeps the generator honest: across the
// corpus, every operator family of Table 2 the harness is meant to
// exercise must actually appear.
func TestGeneratorCoversAlgebra(t *testing.T) {
	seen := map[core.Op]bool{}
	n := fullPrograms
	if testing.Short() {
		n = shortPrograms
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		for _, s := range Generate(seed).Prog.Stmts {
			seen[s.Op] = true
		}
	}
	want := []core.Op{
		core.OpLoad, core.OpConstant, core.OpRange, core.OpCross,
		core.OpAdd, core.OpSubtract, core.OpMultiply, core.OpDivide,
		core.OpModulo, core.OpBitShift, core.OpLogicalAnd, core.OpLogicalOr,
		core.OpGreater, core.OpEquals,
		core.OpZip, core.OpProject, core.OpUpsert,
		core.OpGather, core.OpScatter, core.OpMaterialize, core.OpBreak,
		core.OpPartition,
		core.OpFoldSelect, core.OpFoldSum, core.OpFoldMin, core.OpFoldMax, core.OpFoldScan,
	}
	for _, op := range want {
		if !seen[op] {
			t.Errorf("no generated program uses %v", op)
		}
	}
}
