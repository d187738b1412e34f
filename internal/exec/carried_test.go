package exec

import (
	"context"
	"fmt"
	"math"
	"testing"

	"voodoo/internal/kernel"
	"voodoo/internal/vector"
)

// aggSpec shapes aggKernel.
type aggSpec struct {
	n, extent, groups int
	flt               bool // float locals and values (else integer)
	coincide          bool // the count slot is g + shift[idx], which may equal the sum slot
	outLen            int  // flush buffer slots (0: extent·Locals)
	impure            bool // the post-loop body reads a slot width Pre defines
	gather            bool // load the group through a non-sequential access
}

// aggKernel is the TPC-H grouped-aggregation shape as lowering emits it
// (compile/fold.go): per group g a sum/count pair (a plain count load, a
// read-modify-write run and an op-then-store run) and a first-value min
// and max (plain count load, first-value run, op-then-store),
// flushed by a post-loop body into per-work-item partials. Locals hold 6
// slots per group: sum, count, min, min count, max, max count.
func aggKernel(s aggSpec) *kernel.Kernel {
	k := &kernel.Kernel{}
	kind := vector.Int
	if s.flt {
		kind = vector.Float
	}
	locals := 6 * s.groups
	outLen := s.outLen
	if outLen == 0 {
		outLen = s.extent * locals
	}
	grp := k.AddBuf(kernel.BufDecl{Name: "grp", Kind: vector.Int, Size: s.n, Input: true})
	val := k.AddBuf(kernel.BufDecl{Name: "val", Kind: kind, Size: s.n, Input: true})
	shift := k.AddBuf(kernel.BufDecl{Name: "shift", Kind: vector.Int, Size: s.n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "partial", Kind: kind, Size: outLen})
	next := kernel.FirstFree
	reg := func() kernel.Reg { next++; return next - 1 }
	var body []kernel.Instr
	emit := func(in kernel.Instr) { body = append(body, in) }
	constant := func(v int64, flt bool) kernel.Reg {
		r := reg()
		if flt {
			emit(kernel.Instr{Op: kernel.IConstF, Dst: r, FImm: float64(v), Float: true})
		} else {
			emit(kernel.Instr{Op: kernel.IConstI, Dst: r, Imm: v})
		}
		return r
	}
	add := func(a, b kernel.Reg, flt bool) kernel.Reg {
		r := reg()
		emit(kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: r, A: a, B: b, Float: flt})
		return r
	}
	loadLoc := func(at kernel.Reg) kernel.Reg {
		r := reg()
		emit(kernel.Instr{Op: kernel.ILoadLoc, Dst: r, A: at, Float: s.flt})
		return r
	}
	storeLoc := func(at, v kernel.Reg) {
		emit(kernel.Instr{Op: kernel.IStoreLoc, A: at, B: v, Float: s.flt})
	}

	g := reg()
	emit(kernel.Instr{Op: kernel.ILoad, Dst: g, A: kernel.RegIdx, Buf: grp, Seq: !s.gather})
	x := reg()
	emit(kernel.Instr{Op: kernel.ILoad, Dst: x, A: kernel.RegIdx, Buf: val, Seq: true, Float: s.flt})
	width := constant(int64(s.groups), false)
	kc := width
	if s.coincide {
		kc = reg()
		emit(kernel.Instr{Op: kernel.ILoad, Dst: kc, A: kernel.RegIdx, Buf: shift, Seq: true})
	}
	kc = add(g, kc, false)
	cnt := loadLoc(kc)
	acc := loadLoc(g)
	storeLoc(g, add(acc, x, s.flt))
	one := constant(1, s.flt)
	storeLoc(kc, add(cnt, one, s.flt))
	for i, op := range []kernel.BinOp{kernel.BMin, kernel.BMax} {
		km := add(g, constant(int64(2*(i+1)*s.groups), false), false)
		kmc := add(km, width, false)
		mc := loadLoc(kmc)
		m := loadLoc(km)
		y := reg()
		emit(kernel.Instr{Op: kernel.IBin, BOp: op, Dst: y, A: m, B: x, Float: s.flt})
		cond := mc
		if s.flt {
			cond = reg()
			emit(kernel.Instr{Op: kernel.ICastFI, Dst: cond, A: mc})
		}
		emit(kernel.Instr{Op: kernel.ISel, Dst: y, A: cond, B: y, C: x, Float: s.flt})
		storeLoc(km, y)
		storeLoc(kmc, add(mc, one, s.flt))
	}

	w, slot, lv := reg(), reg(), reg()
	var pre []kernel.Instr
	post := []kernel.Instr{{Op: kernel.IConstI, Dst: w, Imm: int64(locals)}}
	if s.impure {
		pre, post = post, nil
	}
	post = append(post,
		kernel.Instr{Op: kernel.IBin, BOp: kernel.BMul, Dst: slot, A: kernel.RegGID, B: w},
		kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: slot, A: slot, B: kernel.RegJ},
		kernel.Instr{Op: kernel.ILoadLoc, Dst: lv, A: kernel.RegJ, Float: s.flt},
		kernel.Instr{Op: kernel.IStore, A: slot, B: lv, Buf: out, Seq: true, Float: s.flt})
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "gfold", Extent: s.extent, Intent: (s.n + s.extent - 1) / s.extent, N: s.n,
		Prov:   kernel.Prov{Kind: "group-fold", Virtual: true},
		Locals: locals, LocalsFloat: s.flt,
		Pre:          pre,
		Loops:        []kernel.Loop{{Body: body}},
		PostLoopBody: post,
	})
	return k
}

// aggInputs builds aggKernel's inputs: groups cycling with period 5 over
// values cycling with period 7, so every work item starts its groups on
// different values. Float values include −0.0, +0.0, +Inf and −Inf, and
// the first value of group 0 and 1 is −0.0 and +Inf. shift is the count
// slot offset: groups, or 0 (the count slot is the sum slot) every third
// element.
func aggInputs(n, groups int, flt bool) map[string]*Buffer {
	fvals := []float64{math.Copysign(0, -1), math.Inf(1), 3.5, 0, math.Inf(-1), -2, 1}
	ivals := []int64{0, math.MaxInt64, 3, -7, math.MinInt64, -2, 1}
	grp := &Buffer{Kind: vector.Int, I: make([]int64, n)}
	shift := &Buffer{Kind: vector.Int, I: make([]int64, n)}
	val := &Buffer{Kind: vector.Int, I: make([]int64, n)}
	if flt {
		val = &Buffer{Kind: vector.Float, F: make([]float64, n)}
	}
	for i := 0; i < n; i++ {
		grp.I[i] = int64(i % groups)
		shift.I[i] = int64(groups)
		if i%3 == 0 {
			shift.I[i] = 0
		}
		if flt {
			val.F[i] = fvals[i%len(fvals)]
		} else {
			val.I[i] = ivals[i%len(ivals)]
		}
	}
	return map[string]*Buffer{"grp": grp, "val": val, "shift": shift}
}

// TestSplitCarriedWindows pins the compiled carried phase on the grouped
// aggregation shape: the instruction runs lowering emits (read-modify-write,
// op-then-store, first-value) become one chain per aggregate slot, a
// lane-pure post-loop body compiles to primitives while any other stays on
// per-slot interpretation, and every variant matches the interpreter bit for bit
// (or by error text) at every morsel size and worker count, twice each.
func TestSplitCarriedWindows(t *testing.T) {
	bad := func(s aggSpec, g int64) map[string]*Buffer {
		in := aggInputs(s.n, s.groups, s.flt)
		in["grp"].I[1500] = g
		return in
	}
	base := aggSpec{n: 3000, extent: 7, groups: 5, flt: true}
	with := func(f func(*aggSpec)) aggSpec { s := base; f(&s); return s }
	cases := []struct {
		name    string
		spec    aggSpec
		in      func(aggSpec) map[string]*Buffer
		wantErr bool
	}{
		{"float", base, nil, false},
		{"int", with(func(s *aggSpec) { s.flt = false }), nil, false},
		{"sum-count-same-slot", with(func(s *aggSpec) { s.coincide = true }), nil, false},
		{"int-sum-count-same-slot", with(func(s *aggSpec) { s.coincide, s.flt = true, false }), nil, false},
		{"wide-item", with(func(s *aggSpec) { s.extent = 2 }), nil, false},
		{"post-impure", with(func(s *aggSpec) { s.impure = true }), nil, false},
		// g = −1: the count load (a plain step) reads slot groups−1, the
		// read-modify-write window then fails at slot −1.
		{"window-out-of-range", base, func(s aggSpec) map[string]*Buffer { return bad(s, -1) }, true},
		// g = 6·groups: the count load, a plain step, fails first.
		{"step-out-of-range", base, func(s aggSpec) map[string]*Buffer { return bad(s, int64(6*s.groups)) }, true},
		{"flush-short-buffer", with(func(s *aggSpec) { s.outLen = s.extent*6*s.groups - 3 }), nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := aggKernel(tc.spec)
			in := aggInputs(tc.spec.n, tc.spec.groups, tc.spec.flt)
			if tc.in != nil {
				in = tc.in(tc.spec)
			}
			bp, why := compileBatch(k.Frags[0])
			if bp == nil || !bp.split {
				t.Fatalf("shape should batch with a carried phase (reason %q)", why)
			}
			// Per group: the sum, its count, and twice a first-value
			// extreme and its count, plus for floats the count's cast.
			chains := 6
			if tc.spec.flt {
				chains = 8
			}
			if bp.chains == nil || bp.nChains != chains {
				t.Errorf("%d chains (chain-major %v), want %d", bp.nChains, bp.chains != nil, chains)
			}
			if (bp.post != nil) == tc.spec.impure {
				t.Errorf("post-loop body compiled = %v, want %v", bp.post != nil, !tc.spec.impure)
			}
			want, werr, _ := runSplitCase(t, k, in, Par{Workers: 1, Spec: SpecializeOff})
			if (werr != nil) != tc.wantErr {
				t.Fatalf("interpreter error = %v, want error %v", werr, tc.wantErr)
			}
			for _, spec := range []SpecMode{SpecializeBatchOnly, SpecializeAuto} {
				for _, morsel := range []int{1, 3, 0} {
					for _, workers := range []int{1, 4} {
						for rep := 0; rep < 2; rep++ {
							par := Par{Workers: workers, Morsel: morsel, Spec: spec}
							got, gerr, path := runSplitCase(t, k, in, par)
							label := fmt.Sprintf("%s %+v rep %d (%s)", tc.name, par, rep, path)
							if path != "batch" {
								t.Fatalf("%s: ran %q, want batch", label, path)
							}
							if werr != nil || gerr != nil {
								if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
									t.Fatalf("%s: error %v, interpreter %v", label, gerr, werr)
								}
								continue
							}
							requireSameBufs(t, k, want, got, label)
						}
					}
				}
			}
		})
	}
}

// TestSplitStepErrorsMatchInterpreter checks the error text of the
// carried steps themselves, before the interpreter replay that runBatch
// falls back on: a locals index out of range inside a fused window and
// inside a plain step, each the only bad lane of the first batch.
func TestSplitStepErrorsMatchInterpreter(t *testing.T) {
	s := aggSpec{n: 3000, extent: 7, groups: 5, flt: true}
	for _, g := range []int64{-1, int64(6 * s.groups)} {
		k := aggKernel(s)
		in := aggInputs(s.n, s.groups, s.flt)
		in["grp"].I[100] = g
		_, werr, _ := runSplitCase(t, k, in, Par{Workers: 1, Spec: SpecializeOff})
		if werr == nil {
			t.Fatalf("g=%d: interpreter did not fail", g)
		}
		f := k.Frags[0]
		bp, _ := compileBatch(f)
		env := NewEnv(k)
		for name, buf := range in {
			if err := env.Bind(k, name, buf); err != nil {
				t.Fatal(err)
			}
		}
		w := newWorker(context.Background(), f, env, maxReg(f)+1, false, nil, specAssign{batch: bp})
		err := w.runLanes(0, bp.width)
		w.release()
		if err == nil || err.Error() != werr.Error() {
			t.Errorf("g=%d: step error %v, interpreter %v", g, err, werr)
		}
	}
}
