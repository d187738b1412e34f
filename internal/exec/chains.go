// Chain-major execution of the carried phase (see carried.go).
package exec

import (
	"fmt"
	"math"

	"voodoo/internal/kernel"
	"voodoo/internal/verify"
)

// chainFn runs one chain over lanes, the ascending lanes of a segment that
// reached the chain's guard level.
type chainFn func(w *worker, b *bstate, lanes []int32) error

// chainLoop is one compiled chain.
type chainLoop struct {
	level int
	fn    chainFn
	// idx lists the operands the chain indexes locals with, for the slot
	// disjointness check.
	idx []operand
}

// scanLoop is one compiled scan (verify.Scan): it loops over the lanes of
// level lanes — the lower of its update's level and its readers' — and
// folds in the lanes that reach the update.
type scanLoop struct {
	sc          verify.Scan
	lanes       int
	x, cond     operand
	entry, exit int32 // carried columns of the entry and exit values, or -1
	// initI/initF is the register's value after Pre (flat programs), and
	// fin the offset of its per-item final values in bstate.finI/finF.
	initI int64
	initF float64
	fin   int
}

// chainProg is the chain-major form of a fragment's carried slice.
type chainProg struct {
	scans  []scanLoop
	chains []chainLoop
	// nColI/nColF are the carried column counts per file.
	nColI, nColF int
	// check marks two or more chains that access locals, whose slot
	// intervals each segment checks for disjointness.
	check bool
	// used marks the guard levels some scan or chain loops over.
	used []bool
	// flat marks a program without per-item state outside its scans:
	// no locals and no post-loop body, a Pre that only sets constants,
	// and chains that are all carried stores and lane operations over
	// columns, none of whose registers or buffers Pre or Post touch.
	// Every item then starts its scans from the same values, so each
	// scan runs once over the batch, and each chain once after it
	// (runFlat). nFinI/nFinF size the scans' per-item final values.
	flat         bool
	nFinI, nFinF int
}

// iotaLanes lists every lane offset of a batch; a segment's level-0 lanes
// are a slice of it.
var iotaLanes = func() []int32 {
	l := make([]int32, specBatchN)
	for i := range l {
		l[i] = int32(i)
	}
	return l
}()

// filled returns n copies of v.
func filled(n int, v int32) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// compileChains compiles the chain-major form of f's carried slice, or
// returns nil when the slice is one chain with no scans, which runs
// lane-major.
func compileChains(f *kernel.Fragment, facts verify.Facts) *chainProg {
	if len(facts.Scans) == 0 && facts.Chains <= 1 {
		return nil
	}
	// A scan's fold temporary is not written back to the scalar file.
	for _, sc := range facts.Scans {
		if sc.T != kernel.NoReg && sectionsRead(f, sc.T, sc.Float) {
			return nil
		}
	}
	body := f.Loops[0].Body
	nr := int(maxReg(f)) + 1
	c := newCarriedCompiler(f, facts)
	v := &chainView{n: nr, owner: filled(2*nr, -1), col: filled(2*nr, -1), scan: filled(2*nr, -1),
		entry: filled(len(facts.Scans), -1), exit: filled(len(facts.Scans), -1)}
	c.cv = v
	cp := &chainProg{used: make([]bool, facts.LaneGuards+1)}
	members := make([][]int, facts.Chains)
	for p, ch := range facts.Chain {
		if ch < 0 {
			continue
		}
		members[ch] = append(members[ch], p)
		if r, flt, ok := body[facts.Carried[p]].Def(); ok {
			v.owner[regKey(r, flt, nr)] = int32(ch)
		}
	}
	for s, sc := range facts.Scans {
		v.scan[regKey(sc.R, sc.Float, nr)] = int32(s)
		v.at = append(v.at, sc.At)
		cp.scans = append(cp.scans, scanLoop{sc: sc, lanes: sc.Level})
	}

	// Columns: a scan's entry or exit values live from before the first
	// chain (-1) to their last reader, a register another chain reads
	// from its defining chain to its last reader. A column is reused once
	// its last reader has run.
	type colReq struct {
		start, end int
		flt        bool
		slot       *int32
	}
	var reqs []colReq
	reqAt := make([]int32, 2*nr) // per register: its request + 1, or 0
	scanReq := filled(2*len(facts.Scans), 0)
	for ch, ms := range members {
		for _, p := range ms {
			us, n := body[facts.Carried[p]].Uses()
			for _, u := range us[:n] {
				k := regKey(u.R, u.Float, nr)
				switch {
				case v.scan[k] >= 0:
					s := int(v.scan[k])
					slot, q := &v.exit[s], 2*s+1
					if p < v.at[s] {
						slot, q = &v.entry[s], 2*s
					}
					if scanReq[q] == 0 {
						reqs = append(reqs, colReq{start: -1, flt: u.Float, slot: slot})
						scanReq[q] = int32(len(reqs))
					}
					reqs[scanReq[q]-1].end = ch
					cp.scans[s].lanes = min(cp.scans[s].lanes, facts.Level[p])
				case v.owner[k] >= 0 && int(v.owner[k]) != ch:
					if reqAt[k] == 0 {
						reqs = append(reqs, colReq{start: int(v.owner[k]), flt: u.Float, slot: &v.col[k]})
						reqAt[k] = int32(len(reqs))
					}
					reqs[reqAt[k]-1].end = ch
				}
			}
		}
	}
	// Requests arrive ordered by their first reader; place them by start.
	for i := 1; i < len(reqs); i++ {
		for j := i; j > 0 && reqs[j].start < reqs[j-1].start; j-- {
			reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
		}
	}
	var busy [2][]int // per file: the last reader of each column
	for _, r := range reqs {
		fi := 0
		if r.flt {
			fi = 1
		}
		col := -1
		for cc, end := range busy[fi] {
			if end < r.start {
				col = cc
				break
			}
		}
		if col < 0 {
			col = len(busy[fi])
			busy[fi] = append(busy[fi], 0)
		}
		busy[fi][col] = r.end
		*r.slot = int32(col)
	}
	cp.nColI, cp.nColF = len(busy[0]), len(busy[1])

	for s := range cp.scans {
		sl := &cp.scans[s]
		sl.entry, sl.exit = v.entry[s], v.exit[s]
		c.pos = sl.sc.At
		sl.x = c.op(sl.sc.X, sl.sc.Float)
		if sl.sc.Cond != kernel.NoReg {
			sl.cond = c.op(sl.sc.Cond, false)
		}
		cp.used[sl.lanes] = true
	}
	nloc := 0
	cp.flat = f.Locals == 0 && len(f.PostLoopBody) == 0 && !touchesChains(f, v, body, facts)
	for _, in := range f.Pre {
		cp.flat = cp.flat && (in.Op == kernel.IConstI || in.Op == kernel.IConstF)
	}
	for ch, ms := range members {
		v.chain = int32(ch)
		loop := chainLoop{level: facts.Level[ms[0]]}
		for _, p := range ms {
			if in := body[facts.Carried[p]]; in.Op == kernel.ILoadLoc || in.Op == kernel.IStoreLoc {
				c.pos = p
				o := c.op(in.A, false)
				dup := false
				for _, q := range loop.idx {
					dup = dup || q == o
				}
				if !dup {
					loop.idx = append(loop.idx, o)
				}
			}
		}
		if len(loop.idx) > 0 {
			nloc++
		}
		// Only a single-instruction shape (a store or a lane operation)
		// holds no per-item state.
		if loop.fn = c.shape(body, facts, ms); loop.fn == nil || len(ms) > 1 {
			cp.flat = false
		}
		if loop.fn == nil {
			if loop.fn = c.generic(body, facts, ms); loop.fn == nil {
				return nil
			}
		}
		cp.used[loop.level] = true
		cp.chains = append(cp.chains, loop)
	}
	cp.check = nloc > 1
	// Each item's scan finals: a batch spans at most this many items.
	items := 1
	if cp.flat {
		span := max(f.Intent, 1)
		if facts.PerItem {
			span = 1
		}
		items = (min(specBatchN, laneCount(f))-1)/span + 2
	}
	for s := range cp.scans {
		sl := &cp.scans[s]
		for _, in := range f.Pre {
			if r, flt, ok := in.Def(); ok && r == sl.sc.R && flt == sl.sc.Float {
				sl.initI, sl.initF = in.Imm, in.FImm
			}
		}
		if sl.sc.Float {
			sl.fin, cp.nFinF = cp.nFinF, cp.nFinF+items
		} else {
			sl.fin, cp.nFinI = cp.nFinI, cp.nFinI+items
		}
	}
	return cp
}

// sectionsRead reports whether Pre, Post or the post-loop body reads r.
func sectionsRead(f *kernel.Fragment, r kernel.Reg, flt bool) bool {
	for _, sec := range [3][]kernel.Instr{f.Pre, f.Post, f.PostLoopBody} {
		for _, in := range sec {
			us, n := in.Uses()
			for _, u := range us[:n] {
				if u.R == r && u.Float == flt {
					return true
				}
			}
		}
	}
	return false
}

// touchesChains reports whether Pre or Post reads a register a chain
// defines or stores a buffer a chain stores.
func touchesChains(f *kernel.Fragment, v *chainView, body []kernel.Instr, facts verify.Facts) bool {
	for _, sec := range [2][]kernel.Instr{f.Pre, f.Post} {
		for _, in := range sec {
			us, n := in.Uses()
			for _, u := range us[:n] {
				if u.R >= 0 && int(u.R) < v.n && v.owner[regKey(u.R, u.Float, v.n)] >= 0 {
					return true
				}
			}
			if in.Op != kernel.IStore {
				continue
			}
			for p, i := range facts.Carried {
				if st := body[i]; facts.Chain[p] >= 0 && st.Op == kernel.IStore && st.Buf == in.Buf {
					return true
				}
			}
		}
	}
	return false
}

// export returns the carried column of a register the chain being
// compiled defines and another chain reads, or -1.
func (c *carriedCompiler) export(r kernel.Reg, flt bool) int32 {
	return c.cv.col[regKey(r, flt, c.cv.n)]
}

// colOf returns column col of cols, or nil for -1.
func colOf[T int64 | float64](cols [][]T, col int32) []T {
	if col < 0 {
		return nil
	}
	return cols[col]
}

// generic compiles a chain of any shape: a loop over its lanes running
// each lane's steps, then copying the registers other chains read into
// their columns.
func (c *carriedCompiler) generic(body []kernel.Instr, facts verify.Facts, ms []int) chainFn {
	steps, prefix := c.steps(body, facts, ms)
	if steps == nil {
		return nil
	}
	type export struct {
		r   kernel.Reg
		flt bool
		col int32
	}
	var exports []export
	for _, p := range ms {
		if r, flt, ok := body[facts.Carried[p]].Def(); ok {
			if col := c.export(r, flt); col >= 0 {
				dup := false
				for _, e := range exports {
					dup = dup || e.r == r && e.flt == flt
				}
				if !dup {
					exports = append(exports, export{r, flt, col})
				}
			}
		}
	}
	return func(w *worker, b *bstate, lanes []int32) error {
		for _, i := range lanes {
			for _, s := range steps[:prefix[b.lvl[i]]] {
				if err := s(w, b, int(i)); err != nil {
					return err
				}
			}
			for _, e := range exports {
				if e.flt {
					b.cf[e.col][i] = w.rf[e.r]
				} else {
					b.ci[e.col][i] = w.ri[e.r]
				}
			}
		}
		return nil
	}
}

// shape compiles a chain of a shape lowering emits into one loop, or
// returns nil. Every shape lies within one guard level, and reads its
// free operands from columns.
func (c *carriedCompiler) shape(body []kernel.Instr, facts verify.Facts, ms []int) chainFn {
	last := ms[len(ms)-1]
	if facts.Level[ms[0]] != facts.Level[last] || c.scanBetween(ms[0], last) || len(ms) > 5 {
		return nil
	}
	var buf [5]kernel.Instr
	ins := buf[:len(ms)]
	for i, p := range ms {
		ins[i] = body[facts.Carried[p]]
	}
	c.pos = ms[0]
	col := func(r kernel.Reg, flt bool) (operand, bool) {
		o := c.op(r, flt)
		return o, o.kind != opScalar
	}
	isFold := func(in kernel.Instr, flt bool) bool {
		return in.Op == kernel.IBin && in.Float == flt && foldOp(in.BOp)
	}
	in := ins[0]
	switch {
	case len(ins) == 1 && in.Op == kernel.IStore:
		return c.storeChain(in)
	case len(ins) == 1:
		return c.laneOpChain(in)
	case in.Op != kernel.ILoadLoc || !isFold(ins[1], in.Float) || ins[1].A != in.Dst:
		return nil
	}
	ld, bin, t := ins[0], ins[1], ins[0].Float
	k, kok := col(ld.A, false)
	v, vok := col(bin.B, t)
	if !kok || !vok {
		return nil
	}
	isStoreLoc := func(st kernel.Instr) bool {
		return st.Op == kernel.IStoreLoc && st.A == ld.A && st.B == bin.Dst && st.Float == t
	}
	if len(ins) == 3 && isStoreLoc(ins[2]) {
		return c.rmwChain(ld, bin, k, v)
	}
	// First-value min/max: m = loc[k]; y = m ⊕ v; [c = int(cnt)];
	// y = c ? y : v; loc[k] = y.
	n, cast := 2, false
	var cnd operand
	var ok bool
	if t && len(ins) > n && ins[n].Op == kernel.ICastFI {
		if cnd, ok = col(ins[n].A, true); !ok || c.export(ins[n].Dst, false) >= 0 {
			return nil
		}
		cast = true
		n++
	}
	if len(ins) != n+2 || bin.BOp == kernel.BAdd {
		return nil
	}
	sel := ins[n]
	cond := sel.A
	if cast {
		if cond != ins[2].Dst {
			return nil
		}
	} else if cnd, ok = col(cond, false); !ok {
		return nil
	}
	if sel.Op != kernel.ISel || sel.Float != t || sel.Dst != bin.Dst || sel.B != bin.Dst || sel.C != bin.B || !isStoreLoc(ins[n+1]) {
		return nil
	}
	return c.firstValueChain(ld, bin, k, v, cnd, cast, cond)
}

// rmwChain loops x = loc[k]; y = x ⊕ v; loc[k] = y over the lanes.
func (c *carriedCompiler) rmwChain(ld, bin kernel.Instr, k, v operand) chainFn {
	x, y, op := ld.Dst, bin.Dst, bin.BOp
	ex, ey := c.export(x, ld.Float), c.export(y, ld.Float)
	if ld.Float {
		return func(w *worker, b *bstate, lanes []int32) error {
			xs, ys, bad, ok := rmwLanes(op, w.locF, c.locals, k.colI(b), v.colF(b), colOf(b.cf, ex), colOf(b.cf, ey), lanes)
			if !ok {
				return c.localErr(bad, false)
			}
			w.rf[x], w.rf[y] = xs, ys
			if w.count {
				w.stats.LocalOps += 2 * int64(len(lanes))
				w.stats.FloatOps += int64(len(lanes))
			}
			return nil
		}
	}
	return func(w *worker, b *bstate, lanes []int32) error {
		xs, ys, bad, ok := rmwLanes(op, w.locI, c.locals, k.colI(b), v.colI(b), colOf(b.ci, ex), colOf(b.ci, ey), lanes)
		if !ok {
			return c.localErr(bad, false)
		}
		w.ri[x], w.ri[y] = xs, ys
		if w.count {
			w.stats.LocalOps += 2 * int64(len(lanes))
			w.stats.IntOps += int64(len(lanes))
		}
		return nil
	}
}

// rmwLanes runs a read-modify-write over lanes, recording the loaded and
// stored values in xc and yc where non-nil. It returns the last lane's
// values, or the first locals index outside [0, size) and false.
func rmwLanes[T int64 | float64](op kernel.BinOp, loc []T, size int64, k []int64, v, xc, yc []T, lanes []int32) (x, y T, bad int64, ok bool) {
	if op == kernel.BAdd && xc == nil && yc == nil {
		// The sum and count shape.
		for _, i := range lanes {
			ix := k[i]
			if uint64(ix) >= uint64(size) {
				return x, y, ix, false
			}
			x = loc[ix]
			y = x + v[i]
			loc[ix] = y
		}
		return x, y, 0, true
	}
	for _, i := range lanes {
		ix := k[i]
		if uint64(ix) >= uint64(size) {
			return x, y, ix, false
		}
		x = loc[ix]
		y = fold(op, x, v[i])
		loc[ix] = y
		if xc != nil {
			xc[i] = x
		}
		if yc != nil {
			yc[i] = y
		}
	}
	return x, y, 0, true
}

// firstValueChain loops m = loc[k]; y = m ⊕ v; [c = int(cnt)];
// y = c ? y : v; loc[k] = y over the lanes. cnd is the count column
// when cast, else the condition column.
func (c *carriedCompiler) firstValueChain(ld, bin kernel.Instr, k, v, cnd operand, cast bool, cond kernel.Reg) chainFn {
	m, y, op := ld.Dst, bin.Dst, bin.BOp
	em, ey := c.export(m, ld.Float), c.export(y, ld.Float)
	if ld.Float {
		return func(w *worker, b *bstate, lanes []int32) error {
			var cnt []float64
			var cd []int64
			if cast {
				cnt = cnd.colF(b)
			} else {
				cd = cnd.colI(b)
			}
			ms, ys, ci, bad, ok := firstLanes(op, w.locF, c.locals, k.colI(b), v.colF(b), cnt, cd, colOf(b.cf, em), colOf(b.cf, ey), lanes)
			if !ok {
				return c.localErr(bad, false)
			}
			w.rf[m], w.rf[y] = ms, ys
			if cast {
				w.ri[cond] = ci
			}
			if w.count {
				n := int64(len(lanes))
				w.stats.LocalOps += 2 * n
				w.stats.FloatOps += n
				w.stats.IntOps += n
			}
			return nil
		}
	}
	return func(w *worker, b *bstate, lanes []int32) error {
		ms, ys, _, bad, ok := firstLanes(op, w.locI, c.locals, k.colI(b), v.colI(b), nil, cnd.colI(b), colOf(b.ci, em), colOf(b.ci, ey), lanes)
		if !ok {
			return c.localErr(bad, false)
		}
		w.ri[m], w.ri[y] = ms, ys
		if w.count {
			n := int64(len(lanes))
			w.stats.LocalOps += 2 * n
			w.stats.IntOps += 2 * n
		}
		return nil
	}
}

// firstLanes runs a first-value min/max over lanes: the condition is
// int(cnt[i]) when cnt is non-nil, else cond[i]. It returns the last
// lane's loaded value, result and condition, or the first locals index
// outside [0, size) and false.
func firstLanes[T int64 | float64](op kernel.BinOp, loc []T, size int64, k []int64, v []T, cnt []float64, cond []int64, mc, yc []T, lanes []int32) (m, y T, ci, bad int64, ok bool) {
	for _, i := range lanes {
		ix := k[i]
		if uint64(ix) >= uint64(size) {
			return m, y, ci, ix, false
		}
		m = loc[ix]
		val := v[i]
		y = fold(op, m, val)
		if cnt != nil {
			ci = int64(cnt[i])
		} else {
			ci = cond[i]
		}
		if ci == 0 {
			y = val
		}
		loc[ix] = y
		if mc != nil {
			mc[i] = m
		}
		if yc != nil {
			yc[i] = y
		}
	}
	return m, y, ci, 0, true
}

// storeChain loops a carried store (a cursor-positioned filter store)
// over the lanes, with the interpreter's bounds check, conditional
// validity and error text, or returns nil if an operand is not a column.
func (c *carriedCompiler) storeChain(in kernel.Instr) chainFn {
	a, v := c.op(in.A, false), c.op(in.B, in.Float)
	var cond operand
	hasCond := in.C > 0
	if hasCond {
		cond = c.op(in.C, false)
	}
	if a.kind == opScalar || v.kind == opScalar || hasCond && cond.kind == opScalar {
		return nil
	}
	bi, flt := in.Buf, in.Float
	return func(w *worker, b *bstate, lanes []int32) error {
		buf := w.env.Bufs[bi]
		var cd []int64
		if hasCond && buf.Valid != nil {
			cd = cond.colI(b)
		}
		var bad int64
		ok := true
		if flt {
			bad, ok = storeLanes(buf.F, buf.Valid, int64(buf.Len()), a.colI(b), v.colF(b), cd, lanes)
		} else {
			bad, ok = storeLanes(buf.I, buf.Valid, int64(buf.Len()), a.colI(b), v.colI(b), cd, lanes)
		}
		if !ok {
			return fmt.Errorf("store out of bounds: buf %d idx %d len %d", bi, bad, buf.Len())
		}
		w.countSeqAccess(in, buf, int64(len(lanes)))
		return nil
	}
}

// storeLanes stores v[i] at dst[a[i]] over lanes; where cond is non-nil
// and zero, the slot is marked empty and holds zero. It returns the first
// index outside [0, n) and false.
func storeLanes[T int64 | float64](dst []T, valid []bool, n int64, a []int64, v []T, cond []int64, lanes []int32) (int64, bool) {
	for _, i := range lanes {
		ix := a[i]
		if uint64(ix) >= uint64(n) {
			return ix, false
		}
		ok := cond == nil || cond[i] != 0
		var val T
		if ok {
			val = v[i]
		}
		dst[ix] = val
		if valid != nil {
			valid[ix] = ok
		}
	}
	return 0, true
}

// laneOpChain loops one non-trapping operation whose operands are columns
// and whose result another chain reads (a cursor filter's position
// r = base + cursor), writing the last lane's result back; nil otherwise.
func (c *carriedCompiler) laneOpChain(in kernel.Instr) chainFn {
	r, flt, ok := in.Def()
	if !ok {
		return nil
	}
	dc := c.export(r, flt)
	if dc < 0 {
		return nil
	}
	switch in.Op {
	case kernel.IBin:
		x, y := c.op(in.A, flt), c.op(in.B, flt)
		if x.kind == opScalar || y.kind == opScalar {
			return nil
		}
		op := in.BOp
		if flt {
			if int(op) >= len(fltBinLoops) || fltBinLoops[op] == nil {
				return nil
			}
			loop := fltBinLoops[op]
			return func(w *worker, b *bstate, lanes []int32) error {
				d := b.cf[dc]
				loop(d, x.colF(b), y.colF(b), lanes, 0)
				w.rf[r] = d[lanes[len(lanes)-1]]
				if w.count {
					w.stats.FloatOps += int64(len(lanes))
				}
				return nil
			}
		}
		if int(op) >= len(intBinLoops) || intBinLoops[op] == nil {
			return nil
		}
		loop := intBinLoops[op]
		return func(w *worker, b *bstate, lanes []int32) error {
			d := b.ci[dc]
			loop(d, x.colI(b), y.colI(b), lanes, 0)
			w.ri[r] = d[lanes[len(lanes)-1]]
			if w.count {
				w.stats.IntOps += int64(len(lanes))
			}
			return nil
		}
	case kernel.ICastFI:
		x := c.op(in.A, true)
		if x.kind == opScalar {
			return nil
		}
		return func(w *worker, b *bstate, lanes []int32) error {
			d, src := b.ci[dc], x.colF(b)
			for _, i := range lanes {
				d[i] = int64(src[i])
			}
			w.ri[r] = d[lanes[len(lanes)-1]]
			return nil
		}
	case kernel.ICastIF:
		x := c.op(in.A, false)
		if x.kind == opScalar {
			return nil
		}
		return func(w *worker, b *bstate, lanes []int32) error {
			d, src := b.cf[dc], x.colI(b)
			for _, i := range lanes {
				d[i] = float64(src[i])
			}
			w.rf[r] = d[lanes[len(lanes)-1]]
			return nil
		}
	}
	return nil
}

// runScan runs one scan over lanes, the ascending lanes of the batch's
// work items from the one open on entry, whose first lane after that item
// is next. The open item starts from the scalar register; every later
// item starts from the scan's initial value (flat mode only) and each
// item's final accumulator goes to fin, one entry per item. The last
// item's is also written back to the scalar register.
func (w *worker) runScan(sl *scanLoop, b *bstate, lanes []int32, next, items int) {
	sc := &sl.sc
	check, level := sc.Level > sl.lanes, int32(sc.Level)
	var cond []int64
	if sc.Cond != kernel.NoReg {
		cond = sl.cond.colI(b)
	}
	var n int
	span := w.batch.span
	if sc.Float {
		f := b.finF[sl.fin : sl.fin+items]
		n = scanItems(sc.Op, w.rf[sc.R], sl.initF, sl.x.colF(b), cond, b.lvl, check, level,
			colOf(b.cf, sl.entry), colOf(b.cf, sl.exit), lanes, next, span, f)
		w.rf[sc.R] = f[len(f)-1]
	} else {
		f := b.finI[sl.fin : sl.fin+items]
		n = scanItems(sc.Op, w.ri[sc.R], sl.initI, sl.x.colI(b), cond, b.lvl, check, level,
			colOf(b.ci, sl.entry), colOf(b.ci, sl.exit), lanes, next, span, f)
		w.ri[sc.R] = f[len(f)-1]
	}
	if w.count {
		if sc.Float {
			w.stats.FloatOps += int64(n)
		} else {
			w.stats.IntOps += int64(n)
		}
		if sc.Cond != kernel.NoReg {
			w.stats.IntOps += int64(n) // the select
		}
	}
}

// scanItems folds x into acc over lanes — only those whose level reaches
// level when check is set — updating acc only where cond (if non-nil) is
// non-zero, and records each lane's entry and exit value where entry and
// exit are non-nil. Lane next starts a new work item, and so does every
// span-th lane after it: each item's final accumulator goes to fin, and
// the next item starts from init. It returns the number of lanes folded.
func scanItems[T int64 | float64](op kernel.BinOp, acc, init T, x []T, cond []int64, lvl []int32, check bool, level int32, entry, exit []T, lanes []int32, next, span int, fin []T) int {
	j, n := 0, 0
	switch {
	case op == kernel.BAdd && !check && cond == nil && entry == nil && exit == nil &&
		len(lanes) > 0 && int(lanes[len(lanes)-1]-lanes[0]) == len(lanes)-1:
		// A fold over consecutive lanes, item by item.
		for lo, end := int(lanes[0]), int(lanes[len(lanes)-1])+1; lo < end; {
			for lo >= next {
				fin[j], acc = acc, init
				j, next = j+1, next+span
			}
			acc = sum(acc, x[lo:min(next, end)])
			lo = min(next, end)
		}
		n = len(lanes)
	case op == kernel.BAdd && !check && cond == nil && entry == nil && exit == nil:
		// A fold.
		for _, i := range lanes {
			for int(i) >= next {
				fin[j], acc = acc, init
				j, next = j+1, next+span
			}
			acc += x[i]
		}
		n = len(lanes)
	case op == kernel.BAdd && check && cond == nil && exit == nil && entry != nil:
		// A position cursor: entry values and a guarded bump, without a
		// data-dependent branch. x is not computed for the lanes below
		// level, so their sum is discarded rather than masked.
		for _, i := range lanes {
			for int(i) >= next {
				fin[j], acc = acc, init
				j, next = j+1, next+span
			}
			entry[i] = acc
			if sum := acc + x[i]; lvl[i] >= level {
				acc = sum
				n++
			}
		}
	default:
		for _, i := range lanes {
			for int(i) >= next {
				fin[j], acc = acc, init
				j, next = j+1, next+span
			}
			if entry != nil {
				entry[i] = acc
			}
			if !check || lvl[i] >= level {
				if t := fold(op, acc, x[i]); cond == nil || cond[i] != 0 {
					acc = t
				}
				n++
			}
			if exit != nil {
				exit[i] = acc
			}
		}
	}
	for ; j < len(fin); j++ {
		fin[j], acc = acc, init
	}
	return n
}

// sum adds xs to acc in order. Integer addition wraps and is associative,
// so an integer sum runs as four interleaved partial sums; a float sum
// stays one sequential chain, which rounding requires.
func sum[T int64 | float64](acc T, xs []T) T {
	if is, ok := any(xs).([]int64); ok {
		var p [4]int64
		for len(is) >= 4 {
			p[0], p[1], p[2], p[3] = p[0]+is[0], p[1]+is[1], p[2]+is[2], p[3]+is[3]
			is = is[4:]
		}
		for _, v := range is {
			p[0] += v
		}
		return acc + T(p[0]+p[1]+p[2]+p[3])
	}
	for _, v := range xs {
		acc += v
	}
	return acc
}

// runCarried runs the carried phase of a batch of n lanes from global
// index base: chain-major where the fragment has chains or scans,
// lane-major otherwise. A flat program runs each scan once over the
// batch and then closes its items in order; any other runs one work-item
// segment at a time.
func (w *worker) runCarried(base, n int) error {
	bp := w.batch
	b := &w.bst
	cp := bp.chains
	if cp != nil {
		// The full lane lists of each guard level above 0: the lanes
		// passing every guard are the selection the lane side left.
		for g := 1; g < len(cp.used); g++ {
			b.cur[g] = 0
			if !cp.used[g] {
				continue
			}
			if g == bp.guards {
				b.lanes[g] = b.sel
				continue
			}
			l := b.lanes[g][:0]
			for i, lv := range b.lvl[:n] {
				if int(lv) >= g {
					l = append(l, int32(i))
				}
			}
			b.lanes[g] = l
		}
		b.lanes[0] = iotaLanes[:n]
		if cp.flat {
			return w.runFlat(base, n)
		}
	}
	for s := 0; s < n; {
		g := (base + s) / bp.span
		e := min(n, (g+1)*bp.span-base)
		if g != b.item {
			if err := w.enterItem(g); err != nil {
				return err
			}
		}
		var err error
		if cp == nil {
			err = w.laneMajor(iotaLanes[s:e])
		} else {
			err = w.runSegment(w.segment(s, e))
		}
		if err != nil {
			return err
		}
		s = e
	}
	return nil
}

// runFlat runs the carried phase of a flat program (chainProg.flat) over
// a batch: every scan once over all lanes, then, item by item, the scan
// registers set to the item's final values and the item closed (Post) and
// the next opened (Pre, constants only), then the chains over the batch.
func (w *worker) runFlat(base, n int) error {
	bp := w.batch
	b := &w.bst
	cp := bp.chains
	g0 := base / bp.span
	if g0 != b.item {
		if err := w.enterItem(g0); err != nil {
			return err
		}
	}
	items := (base+n-1)/bp.span - g0 + 1
	next := (g0+1)*bp.span - base
	for i := range cp.scans {
		sl := &cp.scans[i]
		w.runScan(sl, b, b.lanes[sl.lanes], next, items)
	}
	for j := 0; j < items; j++ {
		for i := range cp.scans {
			sl := &cp.scans[i]
			if sl.sc.Float {
				w.rf[sl.sc.R] = b.finF[sl.fin+j]
			} else {
				w.ri[sl.sc.R] = b.finI[sl.fin+j]
			}
		}
		if j+1 < items {
			if err := w.enterItem(g0 + j + 1); err != nil {
				return err
			}
		}
	}
	return w.runChains(b.lanes)
}

// segment returns the lanes of [s, e) per guard level, advancing each
// level's cursor past them.
func (w *worker) segment(s, e int) [][]int32 {
	b := &w.bst
	b.seg[0] = iotaLanes[s:e]
	for lv := 1; lv < len(b.seg); lv++ {
		if w.batch.chains.used[lv] {
			l, from := b.lanes[lv], b.cur[lv]
			to := from
			for to < len(l) && int(l[to]) < e {
				to++
			}
			b.seg[lv], b.cur[lv] = l[from:to], to
		}
	}
	return b.seg
}

// laneMajor runs the lane-major steps over lanes, lane after lane.
func (w *worker) laneMajor(lanes []int32) error {
	steps, prefix := w.batch.laneSteps()
	if prefix == nil {
		return fmt.Errorf("exec: fragment %s: carried slice has no lane-major form", w.f.Name)
	}
	b := &w.bst
	for _, i := range lanes {
		for _, s := range steps[:prefix[b.lvl[i]]] {
			if err := s(w, b, int(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// runSegment runs one work-item segment chain-major: its scans, then its
// chains in order. If two chains' locals slot intervals overlap, their
// order could matter, so the segment runs lane-major instead.
func (w *worker) runSegment(seg [][]int32) error {
	cp := w.batch.chains
	if cp.check && w.slotsOverlap(seg) {
		w.stats.SingleChainSegs++
		return w.laneMajor(seg[0])
	}
	w.runScans(seg)
	return w.runChains(seg)
}

// runScans runs every scan over its lanes of a segment.
func (w *worker) runScans(seg [][]int32) {
	cp := w.batch.chains
	for i := range cp.scans {
		sl := &cp.scans[i]
		if lanes := seg[sl.lanes]; len(lanes) > 0 {
			w.runScan(sl, &w.bst, lanes, math.MaxInt, 1)
		}
	}
}

// runChains runs every chain over its lanes of a segment, in order.
func (w *worker) runChains(seg [][]int32) error {
	cp := w.batch.chains
	b := &w.bst
	for i := range cp.chains {
		ch := &cp.chains[i]
		if lanes := seg[ch.level]; len(lanes) > 0 {
			if err := ch.fn(w, b, lanes); err != nil {
				return err
			}
		}
	}
	return nil
}

// slotsOverlap reports whether the locals slot intervals that the
// segment's chains index overlap.
func (w *worker) slotsOverlap(seg [][]int32) bool {
	cp := w.batch.chains
	b := &w.bst
	iv := b.iv[:0]
	for i := range cp.chains {
		ch := &cp.chains[i]
		lanes := seg[ch.level]
		if len(ch.idx) == 0 || len(lanes) == 0 {
			continue
		}
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, o := range ch.idx {
			if col := o.colI(b); col != nil {
				for _, i := range lanes {
					lo, hi = min(lo, col[i]), max(hi, col[i])
				}
			} else {
				lo, hi = min(lo, w.ri[o.r]), max(hi, w.ri[o.r])
			}
		}
		iv = append(iv, [2]int64{lo, hi})
		for j := len(iv) - 1; j > 0 && iv[j][0] < iv[j-1][0]; j-- {
			iv[j], iv[j-1] = iv[j-1], iv[j]
		}
	}
	b.iv = iv
	for j := 1; j < len(iv); j++ {
		if iv[j][0] <= iv[j-1][1] {
			return true
		}
		iv[j][1] = max(iv[j][1], iv[j-1][1])
	}
	return false
}
