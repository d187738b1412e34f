package exec

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"voodoo/internal/kernel"
	"voodoo/internal/metrics"
	"voodoo/internal/vector"
	"voodoo/internal/verify"
)

// levelScanKernel is a cursor read on both sides of its update: a carried
// store at level 0 records each lane's entry position, the cursor counts
// the lanes passing the first guard (level 1), and a store at level 2
// records the exit position of the lanes passing the second guard too.
// With gather set, the input loads through a non-sequential access.
func levelScanKernel(n, extent, intent int, gather bool) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out0 := k.AddBuf(kernel.BufDecl{Name: "entry", Kind: vector.Int, Size: n})
	out2 := k.AddBuf(kernel.BufDecl{Name: "exit", Kind: vector.Int, Size: n})
	cur := kernel.FirstFree
	v, ri, base, pos0, cut1, c1, one, cut2, c2, pos2 := cur+1, cur+2, cur+3, cur+4, cur+5, cur+6, cur+7, cur+8, cur+9, cur+10
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "levels", Extent: extent, Intent: intent, N: n,
		Pre: []kernel.Instr{{Op: kernel.IConstI, Dst: cur, Imm: 0}},
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: v, A: kernel.RegIdx, Buf: in, Seq: !gather},
			{Op: kernel.IConstI, Dst: ri, Imm: int64(intent)},
			{Op: kernel.IBin, BOp: kernel.BMul, Dst: base, A: kernel.RegGID, B: ri},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: pos0, A: base, B: cur},
			{Op: kernel.IStore, A: kernel.RegIdx, B: pos0, Buf: out0, Seq: true},
			{Op: kernel.IConstI, Dst: cut1, Imm: 30},
			{Op: kernel.IBin, BOp: kernel.BGt, Dst: c1, A: v, B: cut1},
			{Op: kernel.IGuard, A: c1},
			{Op: kernel.IConstI, Dst: one, Imm: 1},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: cur, A: cur, B: one},
			{Op: kernel.IConstI, Dst: cut2, Imm: 70},
			{Op: kernel.IBin, BOp: kernel.BGt, Dst: c2, A: v, B: cut2},
			{Op: kernel.IGuard, A: c2},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: pos2, A: base, B: cur},
			{Op: kernel.IStore, A: kernel.RegIdx, B: pos2, Buf: out2, Seq: true},
		}}},
	})
	return k
}

// accKernel folds one input per work item four ways, as the group-reduce
// and filter-fold lowerings do: a plain sum, a count of the flagged
// lanes, a conditional min (t = m min x; m = flag ? t : m) and a plain
// max, each stored by Post.
func accKernel(n, extent int, flt bool) *kernel.Kernel {
	k := &kernel.Kernel{}
	kind := vector.Int
	if flt {
		kind = vector.Float
	}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: kind, Size: n, Input: true})
	flag := k.AddBuf(kernel.BufDecl{Name: "flag", Kind: vector.Int, Size: n, Input: true})
	outs := make([]int, 4)
	for i, name := range []string{"sum", "count", "min", "max"} {
		d := kernel.BufDecl{Name: name, Kind: kind, Size: extent}
		if name == "count" {
			d.Kind = vector.Int
		}
		outs[i] = k.AddBuf(d)
	}
	s, cnt, mn, mx, x, c, t := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2, kernel.FirstFree+3,
		kernel.FirstFree+4, kernel.FirstFree+5, kernel.FirstFree+6
	konst := func(r kernel.Reg, v float64) kernel.Instr {
		if flt {
			return kernel.Instr{Op: kernel.IConstF, Dst: r, FImm: v, Float: true}
		}
		i := int64(v)
		switch {
		case math.IsInf(v, 1):
			i = math.MaxInt64
		case math.IsInf(v, -1):
			i = math.MinInt64
		}
		return kernel.Instr{Op: kernel.IConstI, Dst: r, Imm: i}
	}
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "acc", Extent: extent, Intent: (n + extent - 1) / extent, N: n,
		Pre: []kernel.Instr{
			konst(s, 0), {Op: kernel.IConstI, Dst: cnt}, konst(mn, math.Inf(1)), konst(mx, math.Inf(-1)),
		},
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: x, A: kernel.RegIdx, Buf: in, Seq: true, Float: flt},
			{Op: kernel.ILoad, Dst: c, A: kernel.RegIdx, Buf: flag, Seq: true},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: s, A: s, B: x, Float: flt},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: cnt, A: cnt, B: c},
			{Op: kernel.IBin, BOp: kernel.BMin, Dst: t, A: mn, B: x, Float: flt},
			{Op: kernel.ISel, Dst: mn, A: c, B: t, C: mn, Float: flt},
			{Op: kernel.IBin, BOp: kernel.BMax, Dst: mx, A: mx, B: x, Float: flt},
		}}},
		Post: []kernel.Instr{
			{Op: kernel.IStore, A: kernel.RegGID, B: s, Buf: outs[0], Seq: true, Float: flt},
			{Op: kernel.IStore, A: kernel.RegGID, B: cnt, Buf: outs[1], Seq: true},
			{Op: kernel.IStore, A: kernel.RegGID, B: mn, Buf: outs[2], Seq: true, Float: flt},
			{Op: kernel.IStore, A: kernel.RegGID, B: mx, Buf: outs[3], Seq: true, Float: flt},
		},
	})
	return k
}

// accInputs feeds accKernel −0.0, +0.0, ±Inf and NaN (or the int
// extremes) among ordinary values, flagging every third lane. Work item 0
// sees +Inf, item 1 −Inf, item 2 both (its sum becomes the NaN that
// Inf − Inf gives), item 3 both and a NaN input, so its sum meets two
// different NaNs (and must keep the interpreter's payload), and the later
// items a NaN input.
func accInputs(n, extent int, flt bool) map[string]*Buffer {
	ivals := []int64{3, 0, math.MaxInt64, -1, math.MinInt64, 5, -9}
	neg0 := math.Copysign(0, -1)
	items := [][]float64{
		{1.5, neg0, math.Inf(1), 0, -2, 3},
		{1.5, neg0, math.Inf(-1), 0, -2, 3},
		{1.5, math.Inf(-1), neg0, math.Inf(1), 0, -2},
		{1.5, math.Inf(1), -2, math.Inf(-1), math.NaN(), neg0},
		{1.5, neg0, 0, -2, math.NaN(), 3, 7},
	}
	intent := (n + extent - 1) / extent
	in := &Buffer{Kind: vector.Int, I: make([]int64, n)}
	if flt {
		in = &Buffer{Kind: vector.Float, F: make([]float64, n)}
	}
	flag := &Buffer{Kind: vector.Int, I: make([]int64, n)}
	for i := 0; i < n; i++ {
		if flt {
			vals := items[min(i/intent, len(items)-1)]
			in.F[i] = vals[i%len(vals)]
		} else {
			in.I[i] = ivals[i%len(ivals)]
		}
		if i%3 == 0 {
			flag.I[i] = 1
		}
	}
	return map[string]*Buffer{"in": in, "flag": flag}
}

// twoStoreKernel is a cursor filter that stores twice into one buffer,
// at the cursor and one past it, so each passing lane overwrites the
// previous one's second store: only lane order gives the right result,
// and both stores must share a chain.
func twoStoreKernel(n, extent, intent int) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: extent*intent + 1})
	cur := kernel.FirstFree
	v, cut, c, ri, base, pos, one, next, neg := cur+1, cur+2, cur+3, cur+4, cur+5, cur+6, cur+7, cur+8, cur+9
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "twostore", Extent: extent, Intent: intent, N: n,
		Pre: []kernel.Instr{{Op: kernel.IConstI, Dst: cur, Imm: 0}},
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: v, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.IConstI, Dst: cut, Imm: 40},
			{Op: kernel.IBin, BOp: kernel.BGt, Dst: c, A: v, B: cut},
			{Op: kernel.IConstI, Dst: ri, Imm: int64(intent)},
			{Op: kernel.IBin, BOp: kernel.BMul, Dst: base, A: kernel.RegGID, B: ri},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: pos, A: base, B: cur},
			{Op: kernel.IGuard, A: c},
			{Op: kernel.IConstI, Dst: one, Imm: 1},
			{Op: kernel.IStore, A: pos, B: v, Buf: out},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: next, A: pos, B: one},
			{Op: kernel.IBin, BOp: kernel.BSub, Dst: neg, A: one, B: v},
			{Op: kernel.IStore, A: next, B: neg, Buf: out},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: cur, A: cur, B: one},
		}}},
	})
	return k
}

// twoSlotKernel runs two independent locals read-modify-writes per lane,
// through slot columns a (slots 0–4) and b (slots 10–14) read from the
// input, with 20 slots per work item flushed by the post-loop body.
func twoSlotKernel(n, extent int) *kernel.Kernel {
	k := &kernel.Kernel{}
	ka := k.AddBuf(kernel.BufDecl{Name: "a", Kind: vector.Int, Size: n, Input: true})
	kb := k.AddBuf(kernel.BufDecl{Name: "b", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "partial", Kind: vector.Int, Size: extent * 20})
	a, b, xa, ya, xb, yb, w, slot, lv := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2,
		kernel.FirstFree+3, kernel.FirstFree+4, kernel.FirstFree+5, kernel.FirstFree+6, kernel.FirstFree+7, kernel.FirstFree+8
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "twoslot", Extent: extent, Intent: (n + extent - 1) / extent, N: n,
		Locals: 20,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: a, A: kernel.RegIdx, Buf: ka, Seq: true},
			{Op: kernel.ILoad, Dst: b, A: kernel.RegIdx, Buf: kb, Seq: true},
			{Op: kernel.ILoadLoc, Dst: xa, A: a},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: ya, A: xa, B: kernel.RegIdx},
			{Op: kernel.IStoreLoc, A: a, B: ya},
			{Op: kernel.ILoadLoc, Dst: xb, A: b},
			{Op: kernel.IBin, BOp: kernel.BMax, Dst: yb, A: xb, B: kernel.RegIdx},
			{Op: kernel.IStoreLoc, A: b, B: yb},
		}}},
		PostLoopBody: []kernel.Instr{
			{Op: kernel.IConstI, Dst: w, Imm: 20},
			{Op: kernel.IBin, BOp: kernel.BMul, Dst: slot, A: kernel.RegGID, B: w},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: slot, A: slot, B: kernel.RegJ},
			{Op: kernel.ILoadLoc, Dst: lv, A: kernel.RegJ},
			{Op: kernel.IStore, A: slot, B: lv, Buf: out, Seq: true},
		},
	})
	return k
}

// twoSlotInputs gives twoSlotKernel slot columns a ∈ [0, 5) and
// b ∈ [10, 15); overlap moves lane 700's b slot into a's range.
func twoSlotInputs(n int, overlap bool) map[string]*Buffer {
	a, b := &Buffer{Kind: vector.Int, I: make([]int64, n)}, &Buffer{Kind: vector.Int, I: make([]int64, n)}
	for i := 0; i < n; i++ {
		a.I[i], b.I[i] = int64(i*7%5), int64(10+i*3%5)
	}
	if overlap {
		b.I[700] = 2
	}
	return map[string]*Buffer{"a": a, "b": b}
}

// TestSplitChainShapes runs the chain-major carried phase through the
// shapes whose cross-lane state it splits, each against the interpreter
// at morsels {1, 3, default} × workers {1, 4}, twice: scan cursors whose
// work items straddle batches (intent 59 and intent > 1024), a scan
// updated at guard level 1 and read at levels 0 and 2, accumulators fed
// NaN, −0.0 and ±Inf (including the conditional group-reduce form), two
// carried stores to one buffer, two chains whose slot intervals overlap
// at run time, and an error in a later chain at an earlier lane than an
// error in an earlier chain.
func TestSplitChainShapes(t *testing.T) {
	ints := func(n int, mod int64) *Buffer {
		b := &Buffer{Kind: vector.Int, I: make([]int64, n)}
		for i := range b.I {
			b.I[i] = int64(i*37+11) % mod
		}
		return b
	}
	// Chain a (body order first) fails at lane 500, chain b at lane 100;
	// the slot intervals stay disjoint, so the segment runs chain-major
	// and meets a's error first.
	badSlots := twoSlotInputs(3000, false)
	badSlots["a"].I[500], badSlots["b"].I[100] = -1000, 1000
	cases := []struct {
		name           string
		k              *kernel.Kernel
		in             map[string]*Buffer
		chains, scans  int
		single, failed bool // single-chain segments expected; an error expected
	}{
		{"cursor-straddle", cursorKernel(3001, 51, 59, 40), map[string]*Buffer{"in": ints(3001, 113)}, 2, 1, false, false},
		{"cursor-wide-item", cursorKernel(5000, 3, 2000, 40), map[string]*Buffer{"in": ints(5000, 113)}, 2, 1, false, false},
		{"scan-levels", levelScanKernel(3000, 51, 59, false), map[string]*Buffer{"in": ints(3000, 113)}, 4, 1, false, false},
		{"acc-float", accKernel(3000, 7, true), accInputs(3000, 7, true), 0, 4, false, false},
		{"acc-int", accKernel(3000, 7, false), accInputs(3000, 7, false), 0, 4, false, false},
		{"two-stores", twoStoreKernel(3000, 51, 59), map[string]*Buffer{"in": ints(3000, 113)}, 3, 1, false, false},
		{"slots-disjoint", twoSlotKernel(3000, 3), twoSlotInputs(3000, false), 2, 0, false, false},
		{"slots-overlap", twoSlotKernel(3000, 3), twoSlotInputs(3000, true), 2, 0, true, false},
		{"error-later-chain", twoSlotKernel(3000, 3), badSlots, 2, 0, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.k.Frags[0]
			bp, why := compileBatch(f)
			if bp == nil || !bp.split {
				t.Fatalf("shape should batch with a carried phase (reason %q)", why)
			}
			facts := verify.BatchFacts(f)
			if facts.Chains != tc.chains || len(facts.Scans) != tc.scans || bp.chains == nil {
				t.Fatalf("%d chains, %d scans (compiled %v), want %d and %d", facts.Chains, len(facts.Scans), bp.chains != nil, tc.chains, tc.scans)
			}
			want, werr, _ := runSplitCase(t, tc.k, tc.in, Par{Workers: 1, Spec: SpecializeOff})
			if (werr != nil) != tc.failed {
				t.Fatalf("interpreter error = %v, want error %v", werr, tc.failed)
			}
			for _, morsel := range []int{1, 3, 0} {
				for _, workers := range []int{1, 4} {
					for rep := 0; rep < 2; rep++ {
						par := Par{Workers: workers, Morsel: morsel, Spec: SpecializeBatchOnly}
						env := NewEnv(tc.k)
						for name, buf := range tc.in {
							if err := env.Bind(tc.k, name, buf); err != nil {
								t.Fatal(err)
							}
						}
						fs := FragStats{Light: true}
						gerr := RunFragmentPar(context.Background(), f, env, par, &fs)
						label := fmt.Sprintf("%s %+v rep %d (%s)", tc.name, par, rep, fs.Specialized)
						if fs.Specialized != "batch" {
							t.Fatalf("%s: ran %q, want batch", label, fs.Specialized)
						}
						if fs.Chains != tc.chains || fs.Scans != tc.scans {
							t.Errorf("%s: stats report %d chains, %d scans", label, fs.Chains, fs.Scans)
						}
						if werr != nil || gerr != nil {
							if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
								t.Fatalf("%s: error %v, interpreter %v", label, gerr, werr)
							}
							continue
						}
						if (fs.SingleChainSegs > 0) != tc.single {
							t.Errorf("%s: %d single-chain segments, want any: %v", label, fs.SingleChainSegs, tc.single)
						}
						requireSameBufs(t, tc.k, want, env, label)
					}
				}
			}
		})
	}
}

// TestSplitChainFacts pins the chain partition of the shapes above: the
// two stores into one buffer share a chain, the cursor's readers read
// scan columns, and the conditional min is a scan.
func TestSplitChainFacts(t *testing.T) {
	two := verify.BatchFacts(twoStoreKernel(3000, 51, 59).Frags[0])
	body := twoStoreKernel(3000, 51, 59).Frags[0].Loops[0].Body
	store := -1
	for p, i := range two.Carried {
		if body[i].Op != kernel.IStore {
			continue
		}
		if store >= 0 && two.Chain[p] != store {
			t.Errorf("stores into one buffer in chains %d and %d", store, two.Chain[p])
		}
		store = two.Chain[p]
	}
	acc := verify.BatchFacts(accKernel(3000, 7, true).Frags[0])
	conds := 0
	for _, sc := range acc.Scans {
		if sc.Cond != kernel.NoReg {
			conds++
			if sc.Op != kernel.BMin {
				t.Errorf("conditional scan folds with %v, want min", sc.Op)
			}
		}
	}
	if conds != 1 {
		t.Errorf("%d conditional scans, want 1: %+v", conds, acc.Scans)
	}
}

// TestSplitChainErrorBeforeReplay shows the error case above really
// diverges before the replay: the chain-major runner meets the earlier
// chain's error, the interpreter the later chain's.
func TestSplitChainErrorBeforeReplay(t *testing.T) {
	k := twoSlotKernel(3000, 3)
	in := twoSlotInputs(3000, false)
	in["a"].I[500], in["b"].I[100] = -1000, 1000
	_, werr, _ := runSplitCase(t, k, in, Par{Workers: 1, Spec: SpecializeOff})
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
	if werr == nil || err == nil || err.Error() == werr.Error() {
		t.Fatalf("chain-major error %v, interpreter %v: want two different errors", err, werr)
	}
}

// TestSplitSingleChainCounter: the single-chain fallback counter exists
// from process start and moves by the segments a run reports.
func TestSplitSingleChainCounter(t *testing.T) {
	var sb strings.Builder
	metrics.Default.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "\nvoodoo_carried_single_chain_segments_total ") {
		t.Fatal("no voodoo_carried_single_chain_segments_total series")
	}
	k := twoSlotKernel(3000, 3)
	for _, overlap := range []bool{false, true} {
		in := twoSlotInputs(3000, overlap)
		before := singleChainC.Value()
		env := NewEnv(k)
		for name, buf := range in {
			if err := env.Bind(k, name, buf); err != nil {
				t.Fatal(err)
			}
		}
		fs := FragStats{Light: true}
		if err := RunFragmentPar(context.Background(), k.Frags[0], env, Par{Workers: 1, Spec: SpecializeBatchOnly}, &fs); err != nil {
			t.Fatal(err)
		}
		if got := singleChainC.Value() - before; got != fs.SingleChainSegs || (got > 0) != overlap {
			t.Errorf("overlap %v: counter moved by %d, stats report %d single-chain segments", overlap, got, fs.SingleChainSegs)
		}
	}
}
