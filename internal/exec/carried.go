// The compiled carried phase of split batch fragments.
//
// The carried slice (verify.BatchFacts) runs element-major, lane after lane
// in index order, because its instructions depend on one another across
// lanes: locals read-modify-writes, loop-carried folds and position
// cursors. compileCarried turns it, once per fragment, into a list of
// carried steps — one closure per instruction, or per fused window of
// instructions — whose operands are bound at compile time either to a
// lane column (an import, RegGID, RegIV or RegIdx) or to the scalar
// register file, which holds every register the slice defines. A step
// runs the same instructions in the same order as the interpreter, counts
// the same events and reports the same errors; only the dispatch and the
// operand fetch change.
//
// The fused windows are the contiguous instruction runs lowering emits for
// grouped folds (compile/fold.go), each within one guard level:
//
//   - read-modify-write: x = loc[k]; y = x ⊕ v; loc[k] = y
//   - op-then-store:     y = x ⊕ v; loc[k] = y (the count half of a
//     sum/count pair, whose load came earlier)
//   - first-value:       m = loc[k]; y = m ⊕ v; [c = int(cnt)];
//     y = c ? y : v; loc[k] = y (min and max)
//
// with ⊕ ∈ {add, min, max}. A window reads an input once where the
// interpreter would re-read it only if the window writes no register that
// aliases it in between, and it writes every register it defines back to
// the scalar file in program order, so two folds that hit the same slot in
// one lane need no disjointness proof.
//
// A lane-pure post-loop body (verify.Facts.PostLanes) compiles to batch
// primitives over its slots j ∈ [0, Locals) instead; see flush.
package exec

import (
	"fmt"

	"voodoo/internal/kernel"
	"voodoo/internal/verify"
)

// carriedStep runs one carried instruction, or one fused window, for lane
// i of the current batch.
type carriedStep func(w *worker, b *bstate, i int) error

// operand is one register read of a carried step, bound at compile time
// to the register's lane column or to the scalar register file.
type operand struct {
	r    kernel.Reg
	lane bool
}

// int reads an integer operand for lane i.
func (o operand) int(w *worker, b *bstate, i int) int64 {
	if o.lane {
		return b.ri[o.r][i]
	}
	return w.ri[o.r]
}

// flt reads a float operand for lane i.
func (o operand) flt(w *worker, b *bstate, i int) float64 {
	if o.lane {
		return b.rf[o.r][i]
	}
	return w.rf[o.r]
}

// carriedCompiler binds the operands of one fragment's carried slice.
type carriedCompiler struct {
	laneI, laneF []bool // registers read from lane columns, per file
	locals       int64
}

// op binds a register read.
func (c *carriedCompiler) op(r kernel.Reg, flt bool) operand {
	lane := c.laneI
	if flt {
		lane = c.laneF
	}
	return operand{r: r, lane: int(r) < len(lane) && lane[r]}
}

// compileCarried compiles the carried slice of f into steps, returning
// them with prefix, where a lane that passed g lane guards runs
// steps[:prefix[g]]. It returns nil steps if an instruction has no step
// (unreachable for fact-eligible fragments: the slice never holds a guard).
func compileCarried(f *kernel.Fragment, facts verify.Facts) (steps []carriedStep, prefix []int) {
	c := &carriedCompiler{
		laneI:  make([]bool, max(facts.NRegs, int(kernel.RegIdx)+1)),
		laneF:  make([]bool, facts.NRegs),
		locals: int64(f.Locals),
	}
	c.laneI[kernel.RegGID], c.laneI[kernel.RegIV], c.laneI[kernel.RegIdx] = true, true, true
	for _, r := range facts.ImportI {
		c.laneI[r] = true
	}
	for _, r := range facts.ImportF {
		c.laneF[r] = true
	}
	body := f.Loops[0].Body
	prefix = make([]int, facts.LaneGuards+1)
	for p := 0; p < len(facts.Carried); {
		// The window candidates: the following carried instructions of the
		// same guard level (at most five, the longest window).
		var win [5]kernel.Instr
		nw := 0
		for q := p; q < len(facts.Carried) && nw < len(win) && facts.Level[q] == facts.Level[p]; q++ {
			win[nw] = body[facts.Carried[q]]
			nw++
		}
		s, n := c.window(win[:nw])
		if s == nil {
			s, n = c.step(win[0]), 1
		}
		if s == nil {
			return nil, nil
		}
		steps = append(steps, s)
		for g := facts.Level[p]; g < len(prefix); g++ {
			prefix[g]++
		}
		p += n
	}
	return steps, prefix
}

// foldOp reports whether op is a fold operator a window fuses.
func foldOp(op kernel.BinOp) bool {
	return op == kernel.BAdd || op == kernel.BMin || op == kernel.BMax
}

// fold applies a fused window's operator exactly as ibin/fbin do.
func fold[T int64 | float64](op kernel.BinOp, x, v T) T {
	switch op {
	case kernel.BAdd:
		return x + v
	case kernel.BMin:
		return min(x, v)
	}
	return max(x, v)
}

// window matches a fused window at the start of win, returning its step
// and length, or nil. A step reads each free input once; the interpreter
// re-reads an input at every instruction that uses it, so an input read
// after a register the window writes must not be that register.
func (c *carriedCompiler) window(win []kernel.Instr) (carriedStep, int) {
	// defines reports whether any of ins defines r in the given file.
	defines := func(ins []kernel.Instr, r kernel.Reg, flt bool) bool {
		for _, in := range ins {
			if d, df, ok := in.Def(); ok && d == r && df == flt {
				return true
			}
		}
		return false
	}
	isFold := func(in kernel.Instr, flt bool) bool {
		return in.Op == kernel.IBin && in.Float == flt && foldOp(in.BOp)
	}
	isStoreLoc := func(in kernel.Instr, k, y kernel.Reg, flt bool) bool {
		return in.Op == kernel.IStoreLoc && in.A == k && in.B == y && in.Float == flt
	}
	if len(win) < 2 {
		return nil, 0
	}
	ld, bin := win[0], win[1]
	if ld.Op != kernel.ILoadLoc || !isFold(bin, ld.Float) || bin.A != ld.Dst {
		// Op-then-store: every input is read where the interpreter reads
		// it, so registers may alias freely.
		if isFold(ld, ld.Float) && isStoreLoc(bin, bin.A, ld.Dst, ld.Float) {
			return c.opStore(ld, bin.A), 2
		}
		return nil, 0
	}
	k, v, y, t := ld.A, bin.B, bin.Dst, ld.Float
	// Read-modify-write: v is read after x is written, as in the
	// interpreter; only k is reused at the store.
	if len(win) >= 3 && isStoreLoc(win[2], k, y, t) && !defines(win[:3], k, false) {
		return c.rmw(ld, bin), 3
	}
	if bin.BOp == kernel.BAdd {
		return nil, 0
	}
	// First-value min/max: [c = int(cnt)]; y = c ? y : v; loc[k] = y.
	// Float locals cast a float count; integer locals test it directly.
	n, cast, cond := 2, false, kernel.NoReg
	var cnt kernel.Reg
	if t && len(win) > n && win[n].Op == kernel.ICastFI {
		cast, cnt, cond = true, win[n].A, win[n].Dst
		n++
	}
	if len(win) < n+2 {
		return nil, 0
	}
	sel, st := win[n], win[n+1]
	if !cast {
		cond = sel.A
	}
	n += 2
	if sel.Op != kernel.ISel || sel.Float != t || sel.Dst != y || sel.A != cond || sel.B != y || sel.C != v ||
		!isStoreLoc(st, k, y, t) || defines(win[:n], k, false) || defines(win[:n], v, t) ||
		cast && defines(win[:n], cnt, true) || !cast && defines(win[:n], cond, false) {
		return nil, 0
	}
	return c.firstValue(ld, bin, cast, cnt, cond), n
}

// badLocal reports a locals index outside the scratch array.
func (c *carriedCompiler) badLocal(k int64) bool { return uint64(k) >= uint64(c.locals) }

// localErr is the interpreter's error for an out-of-range locals index.
func (c *carriedCompiler) localErr(k int64, store bool) error {
	if store {
		return fmt.Errorf("local store out of bounds: idx %d size %d", k, c.locals)
	}
	return fmt.Errorf("local load out of bounds: idx %d size %d", k, c.locals)
}

// rmw fuses x = loc[k]; y = x ⊕ v; loc[k] = y.
func (c *carriedCompiler) rmw(ld, bin kernel.Instr) carriedStep {
	k, v := c.op(ld.A, false), c.op(bin.B, ld.Float)
	x, y, op := ld.Dst, bin.Dst, bin.BOp
	if ld.Float {
		return func(w *worker, b *bstate, i int) error {
			ix := k.int(w, b, i)
			if c.badLocal(ix) {
				return c.localErr(ix, false)
			}
			old := w.locF[ix]
			w.rf[x] = old
			nv := fold(op, old, v.flt(w, b, i))
			w.rf[y] = nv
			w.locF[ix] = nv
			if w.count {
				w.stats.LocalOps += 2
				w.stats.FloatOps++
			}
			return nil
		}
	}
	return func(w *worker, b *bstate, i int) error {
		ix := k.int(w, b, i)
		if c.badLocal(ix) {
			return c.localErr(ix, false)
		}
		old := w.locI[ix]
		w.ri[x] = old
		nv := fold(op, old, v.int(w, b, i))
		w.ri[y] = nv
		w.locI[ix] = nv
		if w.count {
			w.stats.LocalOps += 2
			w.stats.IntOps++
		}
		return nil
	}
}

// opStore fuses y = x ⊕ v; loc[k] = y.
func (c *carriedCompiler) opStore(bin kernel.Instr, kr kernel.Reg) carriedStep {
	x, v, k := c.op(bin.A, bin.Float), c.op(bin.B, bin.Float), c.op(kr, false)
	y, op := bin.Dst, bin.BOp
	if bin.Float {
		return func(w *worker, b *bstate, i int) error {
			nv := fold(op, x.flt(w, b, i), v.flt(w, b, i))
			w.rf[y] = nv
			if w.count {
				w.stats.FloatOps++
			}
			ix := k.int(w, b, i)
			if c.badLocal(ix) {
				return c.localErr(ix, true)
			}
			w.locF[ix] = nv
			if w.count {
				w.stats.LocalOps++
			}
			return nil
		}
	}
	return func(w *worker, b *bstate, i int) error {
		nv := fold(op, x.int(w, b, i), v.int(w, b, i))
		w.ri[y] = nv
		if w.count {
			w.stats.IntOps++
		}
		ix := k.int(w, b, i)
		if c.badLocal(ix) {
			return c.localErr(ix, true)
		}
		w.locI[ix] = nv
		if w.count {
			w.stats.LocalOps++
		}
		return nil
	}
}

// firstValue fuses the first-value min/max window m = loc[k]; y = m ⊕ v;
// [c = int(cnt)]; y = c ? y : v; loc[k] = y. Without the cast the select
// tests cond directly.
func (c *carriedCompiler) firstValue(ld, bin kernel.Instr, cast bool, cnt, cond kernel.Reg) carriedStep {
	k, v := c.op(ld.A, false), c.op(bin.B, ld.Float)
	m, y, op := ld.Dst, bin.Dst, bin.BOp
	cn, cd := c.op(cnt, true), c.op(cond, false)
	if ld.Float {
		return func(w *worker, b *bstate, i int) error {
			ix := k.int(w, b, i)
			if c.badLocal(ix) {
				return c.localErr(ix, false)
			}
			old := w.locF[ix]
			w.rf[m] = old
			val := v.flt(w, b, i)
			nv := fold(op, old, val)
			w.rf[y] = nv
			var ci int64
			if cast {
				ci = int64(cn.flt(w, b, i))
				w.ri[cond] = ci
			} else {
				ci = cd.int(w, b, i)
			}
			if ci == 0 {
				nv = val
			}
			w.rf[y] = nv
			w.locF[ix] = nv
			if w.count {
				w.stats.LocalOps += 2
				w.stats.FloatOps++
				w.stats.IntOps++
			}
			return nil
		}
	}
	return func(w *worker, b *bstate, i int) error {
		ix := k.int(w, b, i)
		if c.badLocal(ix) {
			return c.localErr(ix, false)
		}
		old := w.locI[ix]
		w.ri[m] = old
		val := v.int(w, b, i)
		nv := fold(op, old, val)
		w.ri[y] = nv
		if cd.int(w, b, i) == 0 {
			nv = val
		}
		w.ri[y] = nv
		w.locI[ix] = nv
		if w.count {
			w.stats.LocalOps += 2
			w.stats.IntOps += 2
		}
		return nil
	}
}

// step compiles one carried instruction, or returns nil for a guard.
func (c *carriedCompiler) step(in kernel.Instr) carriedStep {
	dst, flt := in.Dst, in.Float
	switch in.Op {
	case kernel.IConstI:
		imm := in.Imm
		return func(w *worker, _ *bstate, _ int) error {
			w.ri[dst] = imm
			return nil
		}
	case kernel.IConstF:
		imm := in.FImm
		return func(w *worker, _ *bstate, _ int) error {
			w.rf[dst] = imm
			return nil
		}
	case kernel.IMov:
		a := c.op(in.A, flt)
		return func(w *worker, b *bstate, i int) error {
			if flt {
				w.rf[dst] = a.flt(w, b, i)
			} else {
				w.ri[dst] = a.int(w, b, i)
			}
			return nil
		}
	case kernel.IBin:
		a, bb, op := c.op(in.A, flt), c.op(in.B, flt), in.BOp
		if foldOp(op) {
			// Cannot fail: skip the error path of ibin/fbin.
			if flt {
				return func(w *worker, b *bstate, i int) error {
					w.rf[dst] = fold(op, a.flt(w, b, i), bb.flt(w, b, i))
					if w.count {
						w.stats.FloatOps++
					}
					return nil
				}
			}
			return func(w *worker, b *bstate, i int) error {
				w.ri[dst] = fold(op, a.int(w, b, i), bb.int(w, b, i))
				if w.count {
					w.stats.IntOps++
				}
				return nil
			}
		}
		return func(w *worker, b *bstate, i int) error {
			if flt {
				v, err := fbin(op, a.flt(w, b, i), bb.flt(w, b, i))
				if err != nil {
					return err
				}
				w.rf[dst] = v
				if w.count {
					w.stats.FloatOps++
				}
				return nil
			}
			v, err := ibin(op, a.int(w, b, i), bb.int(w, b, i))
			if err != nil {
				return err
			}
			w.ri[dst] = v
			if w.count {
				w.stats.IntOps++
			}
			return nil
		}
	case kernel.ISel:
		cond, x, y := c.op(in.A, false), c.op(in.B, flt), c.op(in.C, flt)
		return func(w *worker, b *bstate, i int) error {
			pick := x
			if cond.int(w, b, i) == 0 {
				pick = y
			}
			if flt {
				w.rf[dst] = pick.flt(w, b, i)
			} else {
				w.ri[dst] = pick.int(w, b, i)
			}
			if w.count {
				w.stats.IntOps++
			}
			return nil
		}
	case kernel.ICastIF:
		a := c.op(in.A, false)
		return func(w *worker, b *bstate, i int) error {
			w.rf[dst] = float64(a.int(w, b, i))
			return nil
		}
	case kernel.ICastFI:
		a := c.op(in.A, true)
		return func(w *worker, b *bstate, i int) error {
			w.ri[dst] = int64(a.flt(w, b, i))
			return nil
		}
	case kernel.ILoad, kernel.ILoadValid, kernel.IStore:
		return c.access(in)
	case kernel.ILoadLoc:
		a := c.op(in.A, false)
		return func(w *worker, b *bstate, i int) error {
			ix := a.int(w, b, i)
			if c.badLocal(ix) {
				return c.localErr(ix, false)
			}
			if flt {
				w.rf[dst] = w.locF[ix]
			} else {
				w.ri[dst] = w.locI[ix]
			}
			if w.count {
				w.stats.LocalOps++
			}
			return nil
		}
	case kernel.IStoreLoc:
		a, v := c.op(in.A, false), c.op(in.B, flt)
		return func(w *worker, b *bstate, i int) error {
			ix := a.int(w, b, i)
			if c.badLocal(ix) {
				return c.localErr(ix, true)
			}
			if flt {
				w.locF[ix] = v.flt(w, b, i)
			} else {
				w.locI[ix] = v.int(w, b, i)
			}
			if w.count {
				w.stats.LocalOps++
			}
			return nil
		}
	}
	return nil
}

// access compiles a carried buffer load, validity probe or store (the
// cursor-positioned stores of filters), with the interpreter's bounds
// checks, conditional-validity rule and error text.
func (c *carriedCompiler) access(in kernel.Instr) carriedStep {
	dst, flt, bi := in.Dst, in.Float, in.Buf
	a := c.op(in.A, false)
	switch in.Op {
	case kernel.ILoad:
		return func(w *worker, b *bstate, i int) error {
			buf := w.env.Bufs[bi]
			ix := a.int(w, b, i)
			if ix < 0 || ix >= int64(buf.Len()) {
				return fmt.Errorf("load out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
			}
			if flt {
				w.rf[dst] = buf.F[ix]
			} else {
				w.ri[dst] = buf.I[ix]
			}
			w.countSeqAccess(in, buf, 1)
			return nil
		}
	case kernel.ILoadValid:
		return func(w *worker, b *bstate, i int) error {
			buf := w.env.Bufs[bi]
			ix := a.int(w, b, i)
			if ix < 0 || ix >= int64(buf.Len()) {
				w.ri[dst] = 0
			} else if buf.Valid == nil || buf.Valid[ix] {
				w.ri[dst] = 1
			} else {
				w.ri[dst] = 0
			}
			w.countSeqAccess(in, buf, 1)
			return nil
		}
	}
	v := c.op(in.B, flt)
	var cond operand
	hasCond := in.C > 0
	if hasCond {
		cond = c.op(in.C, false)
	}
	return func(w *worker, b *bstate, i int) error {
		buf := w.env.Bufs[bi]
		ix := a.int(w, b, i)
		if ix < 0 || ix >= int64(buf.Len()) {
			return fmt.Errorf("store out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
		}
		// C > 0 selects conditional validity (see the interpreter): an
		// empty slot holds the reserved zero representation.
		valid := !hasCond || buf.Valid == nil || cond.int(w, b, i) != 0
		if flt {
			val := 0.0
			if valid {
				val = v.flt(w, b, i)
			}
			buf.F[ix] = val
		} else {
			var val int64
			if valid {
				val = v.int(w, b, i)
			}
			buf.I[ix] = val
		}
		if buf.Valid != nil {
			buf.Valid[ix] = valid
		}
		w.countSeqAccess(in, buf, 1)
		return nil
	}
}

// postProg is a lane-pure post-loop body compiled to batch primitives over
// the slots j ∈ [0, Locals) of a work item, width slots per batch. Its
// columns hold RegGID, RegJ and one per register the body defines; defI
// and defF list those registers, whose last-slot values are written back
// to the scalar file as the per-slot loop would leave them.
type postProg struct {
	prims        []batchPrim
	width        int
	colI, colF   []int32
	nColI, nColF int
	defI, defF   []kernel.Reg
}

// compilePost compiles a lane-pure post-loop body (verify.Facts.PostLanes),
// or returns nil if an instruction has no primitive.
func compilePost(f *kernel.Fragment) *postProg {
	pp := &postProg{width: min(specBatchN, f.Locals)}
	nregs := int(kernel.RegJ) + 1
	for _, in := range f.PostLoopBody {
		if r, _, ok := in.Def(); ok {
			nregs = max(nregs, int(r)+1)
		}
	}
	pp.colI, pp.colF = make([]int32, nregs), make([]int32, nregs)
	for r := range pp.colI {
		pp.colI[r], pp.colF[r] = -1, -1
	}
	pp.colI[kernel.RegGID], pp.colI[kernel.RegJ], pp.nColI = 0, 1, 2
	for _, in := range f.PostLoopBody {
		if r, flt, ok := in.Def(); ok {
			switch {
			case flt && pp.colF[r] < 0:
				pp.colF[r] = int32(pp.nColF)
				pp.nColF++
				pp.defF = append(pp.defF, r)
			case !flt && pp.colI[r] < 0:
				pp.colI[r] = int32(pp.nColI)
				pp.nColI++
				pp.defI = append(pp.defI, r)
			}
		}
		p := compilePrim(in)
		if p == nil {
			return nil
		}
		pp.prims = append(pp.prims, p)
	}
	return pp
}

// flush runs the compiled post-loop body of work item gid over every
// scratch slot. Instruction-major order may meet a later slot's error
// first, so an error replays the whole body slot by slot on the
// interpreter, which reports the error element-major order meets first;
// the replay is idempotent, as the body writes no locals and loads no
// buffer the fragment stores.
func (w *worker) flush(gid int) error {
	pp := w.batch.post
	b := &w.pst
	gidc, jc := b.ri[kernel.RegGID], b.ri[kernel.RegJ]
	locals := w.f.Locals
	n := 0
	for base := 0; base < locals; base += n {
		n = min(pp.width, locals-base)
		for i := 0; i < n; i++ {
			gidc[i], jc[i] = int64(gid), int64(base+i)
		}
		b.n, b.sel = n, nil
		for _, p := range pp.prims {
			if err := p(w, b); err != nil {
				return w.postInterp()
			}
		}
	}
	for _, r := range pp.defI {
		w.ri[r] = b.ri[r][n-1]
	}
	for _, r := range pp.defF {
		w.rf[r] = b.rf[r][n-1]
	}
	w.ri[kernel.RegJ] = int64(locals - 1)
	return nil
}
