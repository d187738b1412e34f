// The compiled carried phase of split batch fragments.
//
// The carried slice (verify.BatchFacts) holds the instructions that depend
// on one another across lanes: locals read-modify-writes, loop-carried
// folds and position cursors. It runs chain-major (chains.go), one
// work-item segment of a batch at a time: first every scan (verify.Scan)
// as one prefix-sum loop over the segment's lanes, filling the entry and
// exit columns its readers use, then every chain (verify.Facts.Chain) as
// one loop over the segment's lanes of its guard level, chain after chain
// in the facts' run order. Every locals slot, scan register and stored
// buffer sees exactly its lane-order sequence of updates, so results stay
// bit-identical to the interpreter's; only the interleaving between
// independent chains changes. Chains that touch locals through different
// index registers commute only if they hit disjoint slots, so a segment
// first checks the slot interval each such chain's index columns span; if
// any two overlap, the segment runs lane-major instead, which is the
// single-chain case of the same runner. A program without per-item state
// outside its scans runs each scan and chain once per batch
// (chainProg.flat).
//
// compileChains compiles, once per fragment, each chain of a shape
// lowering emits into one loop closure — read-modify-write (contiguous or
// a split load…op-then-store pair), first-value min/max, a carried store
// or a single lane operation — and any other chain into a loop over its
// lanes that calls carried steps. Carried registers other chains read get
// columns, shared by live range over the chain order; every chain writes
// the registers it defines back to the scalar register file as its last
// lane leaves them, so Post, the post-loop body and later segments see
// what lane-major order would leave.
//
// A carried step runs one instruction for one lane. Its operands are bound
// at compile time to a lane column (an import, RegGID, RegIV or RegIdx),
// to a carried column (chain-major steps only) or to the scalar register
// file. A step counts the same events and reports the same errors as the
// interpreter; compileCarried compiles the lane-major steps.
//
// A lane-pure post-loop body (verify.Facts.PostLanes) compiles to batch
// primitives over its slots j ∈ [0, Locals) instead; see flush.
package exec

import (
	"fmt"

	"voodoo/internal/kernel"
	"voodoo/internal/verify"
)

// carriedStep runs one carried instruction for lane i of the current
// batch.
type carriedStep func(w *worker, b *bstate, i int) error

// Operand kinds: where a carried step reads a register.
const (
	opScalar uint8 = iota // the scalar register file
	opLane                // the register's lane column
	opCol                 // a carried column (chain-major steps only)
)

// operand is one register read of a carried step, bound at compile time
// to a lane column, a carried column or the scalar register file.
type operand struct {
	r    kernel.Reg
	kind uint8
	col  int32
}

// int reads an integer operand for lane i.
func (o operand) int(w *worker, b *bstate, i int) int64 {
	switch o.kind {
	case opLane:
		return b.ri[o.r][i]
	case opCol:
		return b.ci[o.col][i]
	}
	return w.ri[o.r]
}

// flt reads a float operand for lane i.
func (o operand) flt(w *worker, b *bstate, i int) float64 {
	switch o.kind {
	case opLane:
		return b.rf[o.r][i]
	case opCol:
		return b.cf[o.col][i]
	}
	return w.rf[o.r]
}

// colI returns the column an integer operand reads, or nil for a scalar.
func (o operand) colI(b *bstate) []int64 {
	switch o.kind {
	case opLane:
		return b.ri[o.r]
	case opCol:
		return b.ci[o.col]
	}
	return nil
}

// colF returns the column a float operand reads, or nil for a scalar.
func (o operand) colF(b *bstate) []float64 {
	switch o.kind {
	case opLane:
		return b.rf[o.r]
	case opCol:
		return b.cf[o.col]
	}
	return nil
}

// carriedCompiler binds the operands of one fragment's carried slice.
type carriedCompiler struct {
	laneI, laneF []bool // registers read from lane columns, per file
	locals       int64
	// cv binds the carried registers of chain-major steps; nil for the
	// lane-major steps, which keep every carried register in the scalar
	// file. pos is the carried index of the instruction being compiled.
	cv  *chainView
	pos int
}

// chainView is the chain-major binding of carried registers: scan
// registers read their entry or exit column, registers another chain
// defines read their carried column, the rest the scalar file.
type chainView struct {
	n     int     // register stride of the per-register tables (regKey)
	owner []int32 // per register: the chain defining it, or -1
	col   []int32 // per register: its carried column, or -1
	scan  []int32 // per register: its scan, or -1
	// Per scan: the carried index of its update and the columns of its
	// entry and exit values (-1: nothing reads them).
	at          []int
	entry, exit []int32
	chain       int32 // the chain being compiled
}

// newCarriedCompiler binds lane columns for f's carried slice.
func newCarriedCompiler(f *kernel.Fragment, facts verify.Facts) *carriedCompiler {
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
	return c
}

// op binds a register read.
func (c *carriedCompiler) op(r kernel.Reg, flt bool) operand {
	lane := c.laneI
	if flt {
		lane = c.laneF
	}
	if int(r) < len(lane) && lane[r] {
		return operand{r: r, kind: opLane}
	}
	if v := c.cv; v != nil && r >= 0 && int(r) < v.n {
		k := regKey(r, flt, v.n)
		if s := v.scan[k]; s >= 0 {
			col := v.exit[s]
			if c.pos < v.at[s] {
				col = v.entry[s]
			}
			return operand{r: r, kind: opCol, col: col}
		}
		if o := v.owner[k]; o >= 0 && o != v.chain {
			return operand{r: r, kind: opCol, col: v.col[k]}
		}
	}
	return operand{r: r}
}

// compileCarried compiles the carried slice of f into lane-major steps,
// returning them with prefix, where a lane that passed g lane guards runs
// steps[:prefix[g]]. It returns nil steps if an instruction has no step
// (unreachable for fact-eligible fragments: the slice never holds a guard).
func compileCarried(f *kernel.Fragment, facts verify.Facts) (steps []carriedStep, prefix []int) {
	all := make([]int, len(facts.Carried))
	for p := range all {
		all[p] = p
	}
	return newCarriedCompiler(f, facts).steps(f.Loops[0].Body, facts, all)
}

// steps compiles the carried instructions at the carried indices members
// (ascending) into one step each, with their level prefix.
func (c *carriedCompiler) steps(body []kernel.Instr, facts verify.Facts, members []int) (steps []carriedStep, prefix []int) {
	prefix = make([]int, facts.LaneGuards+1)
	for _, p := range members {
		c.pos = p
		s := c.step(body[facts.Carried[p]])
		if s == nil {
			return nil, nil
		}
		steps = append(steps, s)
		for g := facts.Level[p]; g < len(prefix); g++ {
			prefix[g]++
		}
	}
	return steps, prefix
}

// scanBetween reports whether a scan update lies between carried indices
// p and q of the chain-major binding.
func (c *carriedCompiler) scanBetween(p, q int) bool {
	for _, at := range c.cv.at {
		if p < at && at < q {
			return true
		}
	}
	return false
}

// foldOp reports whether op is a fold operator: add, min or max.
func foldOp(op kernel.BinOp) bool {
	return op == kernel.BAdd || op == kernel.BMin || op == kernel.BMax
}

// fold applies a fold operator exactly as ibin/fbin do.
func fold[T int64 | float64](op kernel.BinOp, x, v T) T {
	switch op {
	case kernel.BAdd:
		return x + v
	case kernel.BMin:
		return min(x, v)
	}
	return max(x, v)
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
