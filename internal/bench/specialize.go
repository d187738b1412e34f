package bench

import (
	"fmt"
	"math"
	"time"

	"voodoo/internal/exec"
	"voodoo/internal/kernel"
	"voodoo/internal/vector"
)

// specializeWarnAt is the minimum interpreter / specialized wall-clock
// speedup the dispatch check expects on the canonical selection fragment
// before warning. The specialization layer exists to eliminate per-element
// dispatch, so anything under 1.5x means the batch compiler regressed into
// re-dispatching per element.
const specializeWarnAt = 1.5

// specializeSelectKernel builds the canonical branching selection in the
// exact shape the fused select matcher recognizes: load → compare-against-
// constant → guard → store, sequential, one iteration per work item.
func specializeSelectKernel(n int) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: n})
	rc, r0, r1 := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "spec_select", Extent: n, Intent: 1, N: n,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.IConstI, Dst: rc, Imm: int64(n / 2)},
			{Op: kernel.ILoad, Dst: r0, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.IBin, BOp: kernel.BGt, Dst: r1, A: r0, B: rc},
			{Op: kernel.IGuard, A: r1},
			{Op: kernel.IStore, A: kernel.RegIdx, B: r0, Buf: out, Seq: true},
		}}},
	})
	return k
}

// specializeFoldKernel builds the canonical global FoldSum in the shape
// the fused fold matcher recognizes: Pre seeds the accumulator, the
// intent-bounded loop accumulates in[idx], Post stores at gid.
func specializeFoldKernel(n int) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: 1})
	acc, v := kernel.FirstFree, kernel.FirstFree+1
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "spec_fold", Extent: 1, Intent: n, N: n,
		Pre: []kernel.Instr{{Op: kernel.IConstI, Dst: acc, Imm: 0}},
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: v, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: acc, A: acc, B: v},
		}}},
		Post: []kernel.Instr{{Op: kernel.IStore, A: kernel.RegGID, B: acc, Buf: out, Seq: true}},
	})
	return k
}

// specializeMeasure runs the kernel single-worker under the given
// specialization mode and returns the best-of-3 wall time in seconds.
func specializeMeasure(k *kernel.Kernel, vals []int64, mode exec.SpecMode) (float64, error) {
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		env := exec.NewEnv(k)
		if err := env.Bind(k, "in", &exec.Buffer{Kind: vector.Int, I: vals}); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := exec.RunPar(k, env, exec.Par{Workers: 1, Spec: mode}, nil); err != nil {
			return 0, err
		}
		if d := time.Since(start).Seconds(); d < best {
			best = d
		}
	}
	return best, nil
}

// SpecializeCheck measures the dispatch overhead the specialization layer
// removes: the canonical selection and fold fragments run single-worker
// through the per-element interpreter, the batch primitives, and the fused
// fast path. The measured times land in rep.Medians under "specialize/"
// keys (skipped by CompareCI — real wall clock, not the deterministic
// simulated medians) and the returned warnings are advisory, exactly like
// ScalingCheck: a batch or fused path that is not at least 1.5x faster
// than the interpreter means the specializer lost its batching.
func SpecializeCheck(rep *CIReport) []string {
	const n = 1 << 21
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	type row struct {
		name string
		k    *kernel.Kernel
	}
	var warns []string
	for _, r := range []row{
		{"select", specializeSelectKernel(n)},
		{"fold", specializeFoldKernel(n)},
	} {
		interp, err := specializeMeasure(r.k, vals, exec.SpecializeOff)
		if err != nil {
			return append(warns, fmt.Sprintf("specialize check failed: %v", err))
		}
		batch, err := specializeMeasure(r.k, vals, exec.SpecializeBatchOnly)
		if err != nil {
			return append(warns, fmt.Sprintf("specialize check failed: %v", err))
		}
		fused, err := specializeMeasure(r.k, vals, exec.SpecializeAuto)
		if err != nil {
			return append(warns, fmt.Sprintf("specialize check failed: %v", err))
		}
		rep.Medians["specialize/"+r.name+"_interp"] = interp
		rep.Medians["specialize/"+r.name+"_batch"] = batch
		rep.Medians["specialize/"+r.name+"_fused"] = fused
		rep.Medians["specialize/"+r.name+"_speedup"] = interp / fused
		// The fold's batch form runs its accumulator as a scan in the
		// carried phase (exec/chains.go), so both fragments check the
		// batch path.
		if interp/batch < specializeWarnAt {
			warns = append(warns, fmt.Sprintf(
				"batch specialization %.2fx on %s (interp %.4fs vs batch %.4fs), want >= %.1fx — the batch compiler may be re-dispatching per element",
				interp/batch, r.name, interp, batch, specializeWarnAt))
		}
		if interp/fused < specializeWarnAt {
			warns = append(warns, fmt.Sprintf(
				"fused specialization %.2fx on %s (interp %.4fs vs fused %.4fs), want >= %.1fx — the fused fast path lost its fusion",
				interp/fused, r.name, interp, fused, specializeWarnAt))
		}
	}
	return warns
}
