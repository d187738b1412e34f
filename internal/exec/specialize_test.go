package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"voodoo/internal/kernel"
	"voodoo/internal/metrics"
	"voodoo/internal/vector"
	"voodoo/internal/verify"
)

// specKernel is one differential case: a kernel builder plus its inputs.
// Builders return fresh kernels so each mode run starts from an
// uncompiled fragment cache where the test wants that.
type specKernel struct {
	name  string
	build func() *kernel.Kernel
	in    map[string]*Buffer
}

// selectKernel is the canonical TPC-H selection shape the fused path
// targets: load → compare against a constant → guard → store.
func selectKernel(n int, cut int64) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: n})
	rc, r0, r1 := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "sel", Extent: n, Intent: 1, N: n,
		Prov: kernel.Prov{Kind: "select"},
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.IConstI, Dst: rc, Imm: cut},
			{Op: kernel.ILoad, Dst: r0, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.IBin, BOp: kernel.BGt, Dst: r1, A: r0, B: rc},
			{Op: kernel.IGuard, A: r1},
			{Op: kernel.IStore, A: kernel.RegIdx, B: r0, Buf: out, Seq: true},
		}}},
	})
	return k
}

// mapFloatKernel is the fused map shape in the float domain.
func mapFloatKernel(n int) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Float, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Float, Size: n})
	rc, r0, r1 := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "mapf", Extent: n, Intent: 1, N: n,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.IConstF, Dst: rc, FImm: 1.5, Float: true},
			{Op: kernel.ILoad, Dst: r0, A: kernel.RegIdx, Buf: in, Seq: true, Float: true},
			{Op: kernel.IBin, BOp: kernel.BMul, Dst: r1, A: r0, B: rc, Float: true},
			{Op: kernel.IStore, A: kernel.RegIdx, B: r1, Buf: out, Seq: true, Float: true},
		}}},
	})
	return k
}

// foldKernel is the fused fold shape: Pre seeds an accumulator, the loop
// accumulates with op, Post stores one partial per work item. With
// strided set, lane g visits g, g+extent, ...; otherwise runs are
// blocked. n need not divide evenly (the ragged tail exercises the effN
// clamp).
func foldKernel(n, extent int, op kernel.BinOp, strided bool) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "partial", Kind: vector.Int, Size: extent})
	intent := (n + extent - 1) / extent
	acc, v := kernel.FirstFree, kernel.FirstFree+1
	seed := int64(0)
	if op == kernel.BMin {
		seed = math.MaxInt64
	}
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "fold", Extent: extent, Intent: intent, N: n, Strided: strided,
		Pre: []kernel.Instr{{Op: kernel.IConstI, Dst: acc, Imm: seed}},
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: v, A: kernel.RegIdx, Buf: in, Seq: !strided},
			{Op: kernel.IBin, BOp: op, Dst: acc, A: acc, B: v},
		}}},
		Post: []kernel.Instr{{Op: kernel.IStore, A: kernel.RegGID, B: acc, Buf: out, Seq: true}},
	})
	return k
}

// gatherKernel loads through an index column — a non-sequential access
// the batch compiler accepts but must mark non-countable.
func gatherKernel(n int) *kernel.Kernel {
	k := &kernel.Kernel{}
	idx := k.AddBuf(kernel.BufDecl{Name: "idx", Kind: vector.Int, Size: n, Input: true})
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: n})
	r0, r1 := kernel.FirstFree, kernel.FirstFree+1
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "gather", Extent: n, Intent: 1, N: n,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: r0, A: kernel.RegIdx, Buf: idx, Seq: true},
			{Op: kernel.ILoad, Dst: r1, A: r0, Buf: in},
			{Op: kernel.IStore, A: kernel.RegIdx, B: r1, Buf: out, Seq: true},
		}}},
	})
	return k
}

// mixedKernel chains validity loads, predicates, branch-free selection,
// both cast directions, and a second guarded store — a batch-eligible
// sequence no fused shape matches.
func mixedKernel(n int) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: n})
	hits := k.AddBuf(kernel.BufDecl{Name: "hits", Kind: vector.Int, Size: n})
	rc := kernel.FirstFree
	r0, rv, r1, r2, r3, r4 := rc+1, rc+2, rc+3, rc+4, rc+5, rc+6
	f0, f1 := kernel.FirstFree, kernel.FirstFree+1 // float file
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "mixed", Extent: n, Intent: 1, N: n,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.IConstI, Dst: rc, Imm: 50},
			{Op: kernel.ILoad, Dst: r0, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.ILoadValid, Dst: rv, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.IBin, BOp: kernel.BGt, Dst: r1, A: r0, B: rc},
			{Op: kernel.IBin, BOp: kernel.BAnd, Dst: r2, A: r1, B: rv},
			{Op: kernel.ISel, Dst: r3, A: r2, B: r0, C: rc},
			{Op: kernel.ICastIF, Dst: f0, A: r3},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: f1, A: f0, B: f0, Float: true},
			{Op: kernel.ICastFI, Dst: r4, A: f1},
			{Op: kernel.IStore, A: kernel.RegIdx, B: r4, Buf: out, Seq: true},
			{Op: kernel.IGuard, A: r2},
			{Op: kernel.IStore, A: kernel.RegIdx, B: r0, Buf: hits, Seq: true},
		}}},
	})
	return k
}

// twoLoopKernel runs two one-iteration loops per work item, the second
// longer than the first: each loop is its own primitive sequence over
// the same lanes.
func twoLoopKernel(n int) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	a := k.AddBuf(kernel.BufDecl{Name: "a", Kind: vector.Int, Size: n})
	b := k.AddBuf(kernel.BufDecl{Name: "b", Kind: vector.Int, Size: n})
	r0, r1, r2 := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "twoloop", Extent: n, Intent: 1, N: n,
		Loops: []kernel.Loop{
			{Body: []kernel.Instr{
				{Op: kernel.ILoad, Dst: r0, A: kernel.RegIdx, Buf: in, Seq: true},
				{Op: kernel.IStore, A: kernel.RegIdx, B: r0, Buf: a, Seq: true},
			}},
			{Body: []kernel.Instr{
				{Op: kernel.ILoad, Dst: r0, A: kernel.RegIdx, Buf: in, Seq: true},
				{Op: kernel.IConstI, Dst: r1, Imm: 3},
				{Op: kernel.IBin, BOp: kernel.BMul, Dst: r2, A: r0, B: r1},
				{Op: kernel.IBin, BOp: kernel.BGt, Dst: r1, A: r2, B: r0},
				{Op: kernel.IGuard, A: r1},
				{Op: kernel.IStore, A: kernel.RegIdx, B: r2, Buf: b, Seq: true},
			}},
		},
	})
	return k
}

func seqInts(n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i*7%113 - 19)
	}
	return v
}

// runSpecMode executes k with par on fresh output buffers and returns the
// environment.
func runSpecMode(t *testing.T, k *kernel.Kernel, in map[string]*Buffer, par Par) *Env {
	t.Helper()
	env := NewEnv(k)
	for name, buf := range in {
		if err := env.Bind(k, name, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := RunPar(k, env, par, nil); err != nil {
		t.Fatal(err)
	}
	return env
}

// requireSameBufs asserts every non-input buffer (values and validity) is
// bit-identical between the two environments.
func requireSameBufs(t *testing.T, k *kernel.Kernel, want, got *Env, label string) {
	t.Helper()
	for bi, d := range k.Bufs {
		if d.Input {
			continue
		}
		w, g := want.Bufs[bi], got.Bufs[bi]
		for i := 0; i < w.Len(); i++ {
			if d.Kind == vector.Int && w.I[i] != g.I[i] {
				t.Fatalf("%s: buf %q[%d] = %d, want %d", label, d.Name, i, g.I[i], w.I[i])
			}
			if d.Kind == vector.Float {
				// Compare bit patterns so NaNs and signed zeros count.
				if math.Float64bits(w.F[i]) != math.Float64bits(g.F[i]) {
					t.Fatalf("%s: buf %q[%d] = %v, want %v", label, d.Name, i, g.F[i], w.F[i])
				}
			}
			wv := w.Valid == nil || w.Valid[i]
			gv := g.Valid == nil || g.Valid[i]
			if wv != gv {
				t.Fatalf("%s: buf %q[%d] valid = %v, want %v", label, d.Name, i, gv, wv)
			}
		}
	}
}

// TestSpecializeModesBitIdentical is the in-package half of difftest
// combo #7: for every representative fragment shape, every specialization
// mode × morsel size × worker count produces buffers bit-identical to the
// interpreter's.
func TestSpecializeModesBitIdentical(t *testing.T) {
	n := 3000 // spans multiple 1024-lane batches with a ragged tail
	withValid := &Buffer{Kind: vector.Int, I: seqInts(n), Valid: make([]bool, n)}
	for i := range withValid.Valid {
		withValid.Valid[i] = i%3 != 0
	}
	floats := make([]float64, n)
	for i := range floats {
		floats[i] = float64(i) * 0.25
	}
	floats[17] = math.NaN()
	idx := make([]int64, n)
	for i := range idx {
		idx[i] = int64((i * 379) % n)
	}
	cases := []specKernel{
		{"select", func() *kernel.Kernel { return selectKernel(n, 40) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}},
		{"map-float", func() *kernel.Kernel { return mapFloatKernel(n) },
			map[string]*Buffer{"in": {Kind: vector.Float, F: floats}}},
		{"fold-sum-blocked", func() *kernel.Kernel { return foldKernel(n, 7, kernel.BAdd, false) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}},
		{"fold-min-strided", func() *kernel.Kernel { return foldKernel(n, 4, kernel.BMin, true) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}},
		{"gather", func() *kernel.Kernel { return gatherKernel(n) },
			map[string]*Buffer{"idx": {Kind: vector.Int, I: idx}, "in": {Kind: vector.Int, I: seqInts(n)}}},
		{"mixed", func() *kernel.Kernel { return mixedKernel(n) },
			map[string]*Buffer{"in": withValid}},
		{"two-loops", func() *kernel.Kernel { return twoLoopKernel(n) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := tc.build()
			oracle := runSpecMode(t, k, tc.in, Par{Workers: 1, Spec: SpecializeOff})
			for _, spec := range []SpecMode{SpecializeBatchOnly, SpecializeAuto} {
				for _, morsel := range []int{1, 7, 0} {
					for _, workers := range []int{1, 4} {
						got := runSpecMode(t, k, tc.in, Par{Workers: workers, Morsel: morsel, Spec: spec})
						requireSameBufs(t, k, oracle, got, tc.name)
					}
				}
			}
		})
	}
}

// TestResolveSpecPaths pins the path-resolution policy: fused beats batch
// beats interp, BatchOnly skips fused, Off and fault injection force the
// interpreter, counted runs refuse paths with inexact event counts, and a
// fragment smaller than one batch that needs the split form interprets
// its first run. Every interpreted run names its reason.
func TestResolveSpecPaths(t *testing.T) {
	sel := selectKernel(64, 10).Frags[0]
	gather := gatherKernel(64).Frags[0]
	fold := foldKernel(64, 4, kernel.BAdd, false).Frags[0]
	strided := foldKernel(64, 4, kernel.BMin, true).Frags[0]
	for _, f := range []*kernel.Fragment{fold, strided} {
		if _, path, why := resolveSpec(f, SpecializeAuto, false, false); path != "interp" || why != FallbackFirstRun {
			t.Errorf("%s first run: path %q (%q), want interp (first-run)", f.Name, path, why)
		}
	}
	for _, tc := range []struct {
		name     string
		f        *kernel.Fragment
		mode     SpecMode
		counting bool
		faults   bool
		want     string
		why      string
	}{
		{"select-auto", sel, SpecializeAuto, false, false, "fused", ""},
		{"select-batch-only", sel, SpecializeBatchOnly, false, false, "batch", ""},
		{"select-off", sel, SpecializeOff, false, false, "interp", FallbackOff},
		{"select-faults", sel, SpecializeAuto, false, true, "interp", FallbackFaults},
		{"select-counted", sel, SpecializeAuto, true, false, "fused", ""}, // all-seq: counts exact
		{"gather-auto", gather, SpecializeAuto, false, false, "batch", ""},
		{"gather-counted", gather, SpecializeAuto, true, false, "interp", FallbackCounted}, // random access: counts order-sensitive
		{"fold-auto", fold, SpecializeAuto, false, false, "fused", ""},
		{"fold-batch-only", fold, SpecializeBatchOnly, false, false, "batch", ""}, // the accumulator is carried
		{"strided-batch-only", strided, SpecializeBatchOnly, false, false, "interp", verify.ReasonLoopShape},
	} {
		if _, got, why := resolveSpec(tc.f, tc.mode, tc.counting, tc.faults); got != tc.want || why != tc.why {
			t.Errorf("%s: path = %q (%q), want %q (%q)", tc.name, got, why, tc.want, tc.why)
		}
	}
}

// TestSpecializeBatchEligibility pins the rejections of the batch
// compiler — a register carried across work items, store/load aliasing —
// and the shapes the carried slice admits: locals and multi-iteration
// blocked loops.
func TestSpecializeBatchEligibility(t *testing.T) {
	base := func() *kernel.Fragment { return selectKernel(64, 10).Frags[0] }
	if bp, _ := compileBatch(base()); bp == nil || bp.split {
		t.Fatal("canonical selection should be batch-eligible without a carried phase")
	}

	locals := base()
	locals.Locals = 4
	if bp, why := compileBatch(locals); bp == nil || !bp.split {
		t.Errorf("fragment with locals should batch with a carried phase (%q)", why)
	}

	carry := base()
	// Read a register never defined in the body: the interpreter would
	// observe a sibling item's leftover value. The compare becomes
	// carried, and so does the guard on it.
	carry.Loops[0].Body[2].A = kernel.FirstFree + 9
	if bp, why := compileBatch(carry); bp != nil || why != verify.ReasonCarriedGuard {
		t.Errorf("read-before-def register carry must not batch (reason %q)", why)
	}
	carryStore := base()
	carryStore.Loops[0].Body[4].B = kernel.FirstFree + 9
	if bp, why := compileBatch(carryStore); bp != nil || why != verify.ReasonCarryInit {
		t.Errorf("carry with no initialization in Pre must not batch (reason %q)", why)
	}

	alias := base()
	// Store to the buffer the fragment also loads: batch order differs.
	alias.Loops[0].Body[4].Buf = alias.Loops[0].Body[1].Buf
	if bp, why := compileBatch(alias); bp != nil || why != verify.ReasonLoadStore {
		t.Errorf("store aliasing a loaded buffer must not batch (reason %q)", why)
	}

	multi := foldKernel(64, 4, kernel.BAdd, false).Frags[0]
	if bp, why := compileBatch(multi); bp == nil || bp.span != multi.Intent || len(bp.carried) != 1 {
		t.Errorf("multi-iteration blocked fold should batch with its accumulator carried (%q)", why)
	}
}

// TestSpecializeCacheOnFragment: the compiled program is cached on the
// fragment after first use and reused verbatim.
func TestSpecializeCacheOnFragment(t *testing.T) {
	f := selectKernel(64, 10).Frags[0]
	if f.LoadSpec() != nil {
		t.Fatal("fresh fragment should have no cached spec")
	}
	sp1 := specFor(f)
	sp2 := specFor(f)
	if sp1 != sp2 {
		t.Error("specFor should return the cached program on reuse")
	}
	if f.LoadSpec() == nil {
		t.Error("spec not stored on the fragment")
	}
	if sp1.fused == nil || sp1.batch == nil {
		t.Error("canonical selection should compile both fused and batch forms")
	}
}

// TestFragmentFingerprint: structurally identical fragments fingerprint
// identically; changing one opcode changes the fingerprint.
func TestFragmentFingerprint(t *testing.T) {
	a := selectKernel(64, 10).Frags[0]
	b := selectKernel(64, 99).Frags[0] // different constant, same structure
	if a.Fingerprint() != a.Fingerprint() {
		t.Error("fingerprint not deterministic")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("same-shape fragments should share a fingerprint")
	}
	c := selectKernel(64, 10).Frags[0]
	c.Loops[0].Body[2].BOp = kernel.BGe
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different comparison op should change the fingerprint")
	}
}

// TestSpecializeCancellation: specialized paths honor cancellation at the
// same checkpoints as the interpreter.
func TestSpecializeCancellation(t *testing.T) {
	n := 1 << 16
	k := selectKernel(n, 40)
	env := NewEnv(k)
	if err := env.Bind(k, "in", &Buffer{Kind: vector.Int, I: seqInts(n)}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := RunParContext(ctx, k, env, Par{Workers: 2, Spec: SpecializeAuto}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSpecializeErrorParity: a mid-run bounds fault reports the same
// error from the batch path as from the interpreter.
func TestSpecializeErrorParity(t *testing.T) {
	n := 100
	build := func() *kernel.Kernel {
		k := &kernel.Kernel{}
		in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
		out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: n})
		rc, ri, r0 := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2
		k.Frags = append(k.Frags, &kernel.Fragment{
			Name: "oob", Extent: n, Intent: 1, N: n,
			Loops: []kernel.Loop{{Body: []kernel.Instr{
				{Op: kernel.IConstI, Dst: rc, Imm: 60},
				{Op: kernel.IBin, BOp: kernel.BAdd, Dst: ri, A: kernel.RegIdx, B: rc},
				{Op: kernel.ILoad, Dst: r0, A: ri, Buf: in},
				{Op: kernel.IStore, A: kernel.RegIdx, B: r0, Buf: out, Seq: true},
			}}},
		})
		return k
	}
	run := func(spec SpecMode) error {
		k := build()
		env := NewEnv(k)
		if err := env.Bind(k, "in", &Buffer{Kind: vector.Int, I: seqInts(n)}); err != nil {
			t.Fatal(err)
		}
		return RunPar(k, env, Par{Workers: 1, Spec: spec}, nil)
	}
	want, got := run(SpecializeOff), run(SpecializeAuto)
	if want == nil || got == nil {
		t.Fatalf("both paths should fail: interp=%v batch=%v", want, got)
	}
	if want.Error() != got.Error() {
		t.Errorf("error mismatch:\ninterp: %v\nbatch:  %v", want, got)
	}
}

// TestSpecializeCountedRunsMatchInterpreter: when a counted run does take
// a specialized path (all accesses sequential), every event count matches
// the interpreter's exactly — the device cost models depend on it.
func TestSpecializeCountedRunsMatchInterpreter(t *testing.T) {
	n := 3000
	run := func(spec SpecMode) FragStats {
		k := selectKernel(n, 40)
		env := NewEnv(k)
		if err := env.Bind(k, "in", &Buffer{Kind: vector.Int, I: seqInts(n)}); err != nil {
			t.Fatal(err)
		}
		var st Stats
		if err := RunPar(k, env, Par{Workers: 2, Spec: spec}, &st); err != nil {
			t.Fatal(err)
		}
		return st.Frags[0]
	}
	want, got := run(SpecializeOff), run(SpecializeAuto)
	if got.Specialized != "fused" {
		t.Fatalf("counted all-sequential selection ran %q, want fused", got.Specialized)
	}
	type counts struct {
		Items, StoreBytes, IntOps, FloatOps, SeqBytes, Rand, Near, Guards, GuardsPass int64
	}
	c := func(fs FragStats) counts {
		return counts{fs.Items, fs.StoreBytes, fs.IntOps, fs.FloatOps,
			fs.SeqBytes, fs.RandAccesses, fs.NearAccesses, fs.Guards, fs.GuardsPass}
	}
	if c(want) != c(got) {
		t.Errorf("event counts diverged:\ninterp: %+v\nfused:  %+v", c(want), c(got))
	}
}

// TestSetSpecializeDefault: the process-wide default only rewrites
// SpecializeAuto; explicit modes are untouched.
func TestSetSpecializeDefault(t *testing.T) {
	SetSpecializeDefault(false)
	defer SetSpecializeDefault(true)
	if got := (Par{}).norm().Spec; got != SpecializeOff {
		t.Errorf("norm Spec = %v with default off, want SpecializeOff", got)
	}
	if got := (Par{Spec: SpecializeBatchOnly}).norm().Spec; got != SpecializeBatchOnly {
		t.Errorf("norm rewrote an explicit mode to %v", got)
	}
	SetSpecializeDefault(true)
	if got := (Par{}).norm().Spec; got != SpecializeAuto {
		t.Errorf("norm Spec = %v with default on, want SpecializeAuto", got)
	}
}

// cursorKernel is the TPC-H filter shape: a position cursor carried
// across the iterations of each work item (initialized in Pre) compacts
// the qualifying values of every run to the front of its output slots.
func cursorKernel(n, extent, intent int, cut int64) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: extent * intent, Valid: true})
	cur := kernel.FirstFree
	rc, v, c, ri, base, pos, one := cur+1, cur+2, cur+3, cur+4, cur+5, cur+6, cur+7
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "cursor", Extent: extent, Intent: intent, N: n,
		Prov: kernel.Prov{Kind: "filter"},
		Pre:  []kernel.Instr{{Op: kernel.IConstI, Dst: cur, Imm: 0}},
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.IConstI, Dst: rc, Imm: cut},
			{Op: kernel.ILoad, Dst: v, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.IBin, BOp: kernel.BGt, Dst: c, A: v, B: rc},
			{Op: kernel.IConstI, Dst: ri, Imm: int64(intent)},
			{Op: kernel.IBin, BOp: kernel.BMul, Dst: base, A: kernel.RegGID, B: ri},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: pos, A: base, B: cur},
			{Op: kernel.IGuard, A: c},
			{Op: kernel.IStore, A: pos, B: v, Buf: out},
			{Op: kernel.IConstI, Dst: one, Imm: 1},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: cur, A: cur, B: one},
		}}},
	})
	return k
}

// groupKernel is the TPC-H grouped-fold shape: a locals read-modify-write
// per group (a sum before a guard and a count after it), flushed by the
// post-loop body into per-work-item partials.
func groupKernel(n, extent, intent, groups int) *kernel.Kernel {
	k := &kernel.Kernel{}
	grp := k.AddBuf(kernel.BufDecl{Name: "grp", Kind: vector.Int, Size: n, Input: true})
	val := k.AddBuf(kernel.BufDecl{Name: "val", Kind: vector.Float, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "partial", Kind: vector.Float, Size: extent * 2 * groups})
	g, ng, gc, pass, zi, w, slot := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2,
		kernel.FirstFree+3, kernel.FirstFree+4, kernel.FirstFree+5, kernel.FirstFree+6
	x, acc, sum, zf, one, cnt, inc, pos := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2,
		kernel.FirstFree+3, kernel.FirstFree+4, kernel.FirstFree+5, kernel.FirstFree+6, kernel.FirstFree+7
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "gfold", Extent: extent, Intent: intent, N: n,
		Prov:   kernel.Prov{Kind: "group-fold", Virtual: true},
		Locals: 2 * groups, LocalsFloat: true,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: g, A: kernel.RegIdx, Buf: grp, Seq: true},
			{Op: kernel.ILoad, Dst: x, A: kernel.RegIdx, Buf: val, Seq: true, Float: true},
			{Op: kernel.ILoadLoc, Dst: acc, A: g, Float: true},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: sum, A: acc, B: x, Float: true},
			{Op: kernel.IStoreLoc, A: g, B: sum, Float: true},
			{Op: kernel.IConstF, Dst: zf, FImm: 0, Float: true},
			{Op: kernel.IBin, BOp: kernel.BGt, Dst: pos, A: x, B: zf, Float: true},
			{Op: kernel.ICastFI, Dst: pass, A: pos},
			{Op: kernel.IGuard, A: pass},
			{Op: kernel.IConstI, Dst: ng, Imm: int64(groups)},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: gc, A: g, B: ng},
			{Op: kernel.ILoadLoc, Dst: cnt, A: gc, Float: true},
			{Op: kernel.IConstF, Dst: one, FImm: 1, Float: true},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: inc, A: cnt, B: one, Float: true},
			{Op: kernel.IStoreLoc, A: gc, B: inc, Float: true},
		}}},
		PostLoopBody: []kernel.Instr{
			{Op: kernel.IConstI, Dst: zi, Imm: int64(2 * groups)},
			{Op: kernel.IBin, BOp: kernel.BMul, Dst: w, A: kernel.RegGID, B: zi},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: slot, A: w, B: kernel.RegJ},
			{Op: kernel.ILoadLoc, Dst: acc, A: kernel.RegJ, Float: true},
			{Op: kernel.IStore, A: slot, B: acc, Buf: out, Seq: true, Float: true},
		},
	})
	return k
}

// orderErrKernel fails in two places within its single work item: the
// first load (program order) fails from lane 924 on, the second only at
// lane 500. Element-major order meets the second first; instruction-major
// order the first.
func orderErrKernel(n int) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: 1024, Input: true})
	ix := k.AddBuf(kernel.BufDecl{Name: "ix", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: n})
	acc, off, a, v1, j, v2, s := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2,
		kernel.FirstFree+3, kernel.FirstFree+4, kernel.FirstFree+5, kernel.FirstFree+6
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "order", Extent: 1, Intent: n, N: n,
		Pre: []kernel.Instr{{Op: kernel.IConstI, Dst: acc, Imm: 0}},
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.IConstI, Dst: off, Imm: 100},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: a, A: kernel.RegIdx, B: off},
			{Op: kernel.ILoad, Dst: v1, A: a, Buf: in},
			{Op: kernel.ILoad, Dst: j, A: kernel.RegIdx, Buf: ix, Seq: true},
			{Op: kernel.ILoad, Dst: v2, A: j, Buf: in},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: s, A: v1, B: v2},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: acc, A: acc, B: s},
		}}},
		Post: []kernel.Instr{{Op: kernel.IStore, A: kernel.RegGID, B: acc, Buf: out, Seq: true}},
	})
	return k
}

// runSplitCase runs k on fresh output buffers and returns the environment,
// the error and the execution path.
func runSplitCase(t *testing.T, k *kernel.Kernel, in map[string]*Buffer, par Par) (*Env, error, string) {
	t.Helper()
	env := NewEnv(k)
	for name, buf := range in {
		if err := env.Bind(k, name, buf); err != nil {
			t.Fatal(err)
		}
	}
	fs := FragStats{Light: true}
	err := RunFragmentPar(context.Background(), k.Frags[0], env, par, &fs)
	return env, err, fs.Specialized
}

// TestSplitParityShapes drives the lane/carried split through the shapes
// whose carried state crosses batch and work-item boundaries, against the
// interpreter at every morsel size and worker count, each plan run twice
// so both the first-run and the compiled tier are covered: ragged N,
// empty trailing work items, a work item spanning batches, a guard that
// drops every lane, a cursor filter, a locals read-modify-write, and an
// error whose element-major and instruction-major orders differ.
func TestSplitParityShapes(t *testing.T) {
	ints := func(n int, mod int64) *Buffer {
		b := &Buffer{Kind: vector.Int, I: make([]int64, n)}
		for i := range b.I {
			b.I[i] = int64(i*37+11) % mod
		}
		return b
	}
	floats := func(n int) *Buffer {
		b := &Buffer{Kind: vector.Float, F: make([]float64, n)}
		for i := range b.F {
			b.F[i] = float64(i%13) - 4.5
		}
		return b
	}
	ix := ints(2048, 1024)
	ix.I[500] = 99999
	cases := []struct {
		name    string
		k       *kernel.Kernel
		in      map[string]*Buffer
		wantErr bool
	}{
		{"cursor-ragged", cursorKernel(3001, 51, 59, 40), map[string]*Buffer{"in": ints(3001, 113)}, false},
		{"cursor-empty-tail", cursorKernel(3000, 80, 59, 40), map[string]*Buffer{"in": ints(3000, 113)}, false},
		{"cursor-wide-item", cursorKernel(5000, 3, 2000, 40), map[string]*Buffer{"in": ints(5000, 113)}, false},
		{"cursor-none-pass", cursorKernel(3000, 51, 59, 1000), map[string]*Buffer{"in": ints(3000, 113)}, false},
		{"fold-empty-tail", foldKernel(3000, 2900, kernel.BAdd, false), map[string]*Buffer{"in": ints(3000, 113)}, false},
		{"fold-wide-item", foldKernel(5000, 2, kernel.BMax, false), map[string]*Buffer{"in": ints(5000, 113)}, false},
		{"group-rmw", groupKernel(3000, 7, 429, 5), map[string]*Buffer{"grp": ints(3000, 5), "val": floats(3000)}, false},
		{"group-wide-item", groupKernel(3000, 2, 1500, 3), map[string]*Buffer{"grp": ints(3000, 3), "val": floats(3000)}, false},
		{"error-order", orderErrKernel(2048), map[string]*Buffer{"in": ints(1024, 1024), "ix": ix}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if bp, why := compileBatch(tc.k.Frags[0]); bp == nil || !bp.split {
				t.Fatalf("shape should batch with a carried phase (reason %q)", why)
			}
			want, werr, _ := runSplitCase(t, tc.k, tc.in, Par{Workers: 1, Spec: SpecializeOff})
			if (werr != nil) != tc.wantErr {
				t.Fatalf("interpreter error = %v, want error %v", werr, tc.wantErr)
			}
			for _, spec := range []SpecMode{SpecializeBatchOnly, SpecializeAuto} {
				for _, morsel := range []int{1, 7, 0} {
					for _, workers := range []int{1, 4} {
						for rep := 0; rep < 2; rep++ {
							par := Par{Workers: workers, Morsel: morsel, Spec: spec}
							got, gerr, path := runSplitCase(t, tc.k, tc.in, par)
							label := fmt.Sprintf("%s %+v rep %d (%s)", tc.name, par, rep, path)
							if spec == SpecializeBatchOnly && path != "batch" {
								t.Fatalf("%s: ran %q, want batch", label, path)
							}
							if werr != nil || gerr != nil {
								if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
									t.Fatalf("%s: error %v, interpreter %v", label, gerr, werr)
								}
								continue
							}
							requireSameBufs(t, tc.k, want, got, label)
						}
					}
				}
			}
		})
	}
}

// TestInterpretedReasonSeries: every fallback reason has its
// voodoo_fragments_interpreted_total series from process start, and an
// interpreted run moves the series of its reason.
func TestInterpretedReasonSeries(t *testing.T) {
	scrape := func() string {
		var sb strings.Builder
		metrics.Default.WritePrometheus(&sb)
		return sb.String()
	}
	text := scrape()
	for _, r := range append([]string{FallbackOff, FallbackFaults, FallbackCounted, FallbackFirstRun}, verify.Reasons...) {
		if !strings.Contains(text, `voodoo_fragments_interpreted_total{reason="`+r+`"}`) {
			t.Errorf("no series for reason %q", r)
		}
	}
	before := interpretedC[FallbackOff].Value()
	k := selectKernel(64, 10)
	fs := FragStats{Light: true}
	env := NewEnv(k)
	if err := env.Bind(k, "in", &Buffer{Kind: vector.Int, I: seqInts(64)}); err != nil {
		t.Fatal(err)
	}
	if err := RunFragmentPar(context.Background(), k.Frags[0], env, Par{Spec: SpecializeOff}, &fs); err != nil {
		t.Fatal(err)
	}
	if fs.Specialized != "interp" || fs.Fallback != FallbackOff {
		t.Errorf("path %q fallback %q, want interp/off", fs.Specialized, fs.Fallback)
	}
	if interpretedC[FallbackOff].Value() != before+1 {
		t.Error("off series did not move")
	}
}

// TestLightRunsKeepUntracedPaths: a light (traced) run of a fragment whose
// batch counts are inexact takes the batch path an uncounted run takes
// and still reports the order-independent counts; a full counted run
// interprets it, naming the reason.
func TestLightRunsKeepUntracedPaths(t *testing.T) {
	n := 3000
	k := cursorKernel(n, 51, 59, 40)
	run := func(fs *FragStats) *Env {
		env := NewEnv(k)
		if err := env.Bind(k, "in", &Buffer{Kind: vector.Int, I: seqInts(n)}); err != nil {
			t.Fatal(err)
		}
		if err := RunFragmentPar(context.Background(), k.Frags[0], env, Par{Workers: 1}, fs); err != nil {
			t.Fatal(err)
		}
		return env
	}
	light, full := FragStats{Light: true}, FragStats{}
	got, want := run(&light), run(&full)
	requireSameBufs(t, k, want, got, "light vs counted")
	if light.Specialized != "batch" || light.Fallback != "" {
		t.Errorf("light run took %q (%q), want batch", light.Specialized, light.Fallback)
	}
	if full.Specialized != "interp" || full.Fallback != FallbackCounted {
		t.Errorf("counted run took %q (%q), want interp (counted)", full.Specialized, full.Fallback)
	}
	if light.Items != full.Items || light.StoreBytes != full.StoreBytes || light.IntOps != full.IntOps ||
		light.Guards != full.Guards || light.GuardsPass != full.GuardsPass {
		t.Errorf("order-independent counts diverged:\nlight: %+v\nfull:  %+v", light, full)
	}
	if light.RandAccesses != 0 || light.NearAccesses != 0 {
		t.Errorf("light run classified random accesses: rand %d near %d", light.RandAccesses, light.NearAccesses)
	}
}

// TestSplitCountedRunsMatchInterpreter: a split fragment whose accesses
// are all sequential takes the batch path even on a full counted run, and
// every event count — lane primitives plus the carried phase's
// interpreted instructions — matches the interpreter's exactly.
func TestSplitCountedRunsMatchInterpreter(t *testing.T) {
	n := 3000
	grp, val := &Buffer{Kind: vector.Int, I: make([]int64, n)}, &Buffer{Kind: vector.Float, F: make([]float64, n)}
	for i := range grp.I {
		grp.I[i], val.F[i] = int64(i%5), float64(i%13)-4.5
	}
	k := groupKernel(n, 7, 429, 5)
	run := func(spec SpecMode) FragStats {
		env := NewEnv(k)
		if err := env.Bind(k, "grp", grp); err != nil {
			t.Fatal(err)
		}
		if err := env.Bind(k, "val", val); err != nil {
			t.Fatal(err)
		}
		var st Stats
		if err := RunPar(k, env, Par{Workers: 2, Morsel: 3, Spec: spec}, &st); err != nil {
			t.Fatal(err)
		}
		return st.Frags[0]
	}
	want, got := run(SpecializeOff), run(SpecializeBatchOnly)
	if got.Specialized != "batch" {
		t.Fatalf("counted all-sequential grouped fold ran %q (%q), want batch", got.Specialized, got.Fallback)
	}
	type counts struct {
		Items, StoreBytes, IntOps, FloatOps, SeqBytes, Rand, Near, Guards, GuardsPass, LocalOps int64
	}
	c := func(fs FragStats) counts {
		return counts{fs.Items, fs.StoreBytes, fs.IntOps, fs.FloatOps, fs.SeqBytes,
			fs.RandAccesses, fs.NearAccesses, fs.Guards, fs.GuardsPass, fs.LocalOps}
	}
	if c(want) != c(got) {
		t.Errorf("event counts diverged:\ninterp: %+v\nbatch:  %+v", c(want), c(got))
	}
}
