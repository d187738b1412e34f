// Fragment specialization: compiled batch primitives and fused fast paths.
//
// The interpreter in exec.go dispatches through a switch statement once per
// instruction per element — O(items × instrs) dispatches. The paper's whole
// point is that fragments are fused, function-call-free kernels, so this
// file compiles each fragment once (cached on the *kernel.Fragment,
// concurrency-safe) into one of two faster forms:
//
//   - batch primitives: one tight Go loop per instruction over a batch of
//     up to 1024 lanes held in register columns, where a lane is one loop
//     iteration. Dispatch cost drops to O(batches × instrs); the loops are
//     bounds-check-friendly and auto-vectorizable. IGuard is handled by
//     compacting a selection mask, so predication never branches on data
//     inside a primitive. Loop-carried state — folds, position cursors,
//     grouped scratch arrays — lives in the carried slice
//     (verify.BatchFacts), which runs after the primitives chain-major:
//     prefix-sum scans, then one loop per chain of instructions sharing
//     cross-lane state (chains.go, carried.go), with Pre and Post at
//     work-item boundaries and a lane-pure post-loop body as primitives
//     over its slots.
//   - fused fast paths: single hand-fused closures for the hottest shapes
//     mined from TPC-H traces — load→compare→guard→store selection,
//     load→arith→store maps, and the FoldSum/FoldMin/FoldMax accumulate
//     loops.
//
// The per-element interpreter remains as the fallback for exotic sequences
// and as the oracle for differential testing (difftest combo #7 sweeps all
// modes against it).
//
// Contracts preserved exactly: cancellation checkpoints each ~1024 items
// (tickN retires a batch's budget at once), governor Limits, panics →
// *PanicError with cross-worker abort, arena ownership, and bit-identical
// results and errors at any morsel size and worker count. Lane
// instructions see only their own lane's registers, so running them
// instruction-major cannot change a value; no fragment both loads and
// stores a buffer, so the order of its memory accesses cannot either. An
// error inside a batch replays the batch's work items on the interpreter,
// which reports the error element-major order would have met first.
//
// Measurement fidelity: the interpreter's Near/Rand access classification
// is execution-order-sensitive (an 8-line LRU per buffer), and batch
// execution visits memory instruction-major instead of element-major. A
// specialized path is therefore only used for a fully counted run when
// every memory access it compiles is sequential, where the counts are
// order-independent; otherwise counted runs fall back to the interpreter
// so simulated device times never drift. Light runs (traces) count only
// order-independent events and take any path. Fault-injection hooks replay
// per-item state the compiled paths do not model, so any enabled hook also
// forces the interpreter.
package exec

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"voodoo/internal/kernel"
	"voodoo/internal/metrics"
	"voodoo/internal/verify"
)

// SpecMode selects how much fragment specialization the executor applies.
type SpecMode uint8

const (
	// SpecializeAuto (the zero value) uses fused fast paths where a shape
	// matches, batch primitives where eligible, and the interpreter
	// otherwise.
	SpecializeAuto SpecMode = iota
	// SpecializeOff always interprets — the -no-specialize escape hatch
	// and the differential-test oracle.
	SpecializeOff
	// SpecializeBatchOnly uses batch primitives but never fused closures;
	// difftest uses it to exercise the batch compiler on hot shapes that
	// would otherwise take the fused path.
	SpecializeBatchOnly
)

// specDefaultOff, when set, resolves SpecializeAuto to SpecializeOff
// process-wide. It backs the -no-specialize flag of binaries that call
// the executor through APIs without a per-run mode (voodoo-bench).
var specDefaultOff atomic.Bool

// SetSpecializeDefault turns fragment specialization on (the default) or
// off process-wide for runs that leave Par.Spec at SpecializeAuto.
// Explicit per-run modes are unaffected.
func SetSpecializeDefault(on bool) { specDefaultOff.Store(!on) }

// Reasons a fragment run interprets besides a verify.BatchFacts reason.
const (
	FallbackOff      = "off"             // SpecializeOff
	FallbackFaults   = "fault-injection" // a fault-injection hook is enabled
	FallbackCounted  = "counted"         // a full counted run of a fragment with inexact batch counts
	FallbackFirstRun = "first-run"       // the first run of a split fragment smaller than one batch
)

// Specialization observability: every fragment execution counts the path
// it actually took, and every interpreted one why. All series are
// pre-created so they exist at zero.
var (
	specializedVec = metrics.NewCounterVec("voodoo_fragments_specialized_total",
		"Fragment executions by execution path: fused closure, batch primitives, or the per-element interpreter.", "path")
	specFusedC  = specializedVec.With("fused")
	specBatchC  = specializedVec.With("batch")
	specInterpC = specializedVec.With("interp")

	interpretedVec = metrics.NewCounterVec("voodoo_fragments_interpreted_total",
		"Fragment executions on the per-element interpreter, by the reason the batch path was not taken.", "reason")
	interpretedC = func() map[string]*metrics.Counter {
		m := map[string]*metrics.Counter{}
		for _, r := range append([]string{FallbackOff, FallbackFaults, FallbackCounted, FallbackFirstRun}, verify.Reasons...) {
			m[r] = interpretedVec.With(r)
		}
		return m
	}()

	singleChainC = metrics.NewCounter("voodoo_carried_single_chain_segments_total",
		"Work-item segments of batch fragments whose carried phase ran lane-major because two chains' locals slot intervals overlapped.")
)

// specBatchN is the lane count of one register-column batch. It equals
// checkInterval so every batch boundary is a cancellation checkpoint,
// preserving the interpreter's cancellation latency.
const specBatchN = checkInterval

// specProgram is the cached compilation of one fragment, stored on the
// Fragment via kernel.StoreSpec.
type specProgram struct {
	batch  *batchProg  // nil when the fragment is not batch-eligible
	reason string      // why batch is nil (a verify.BatchFacts reason)
	fused  fusedRunner // nil when no fused shape matched
	// fusedCountable / batch.countable report whether the path's event
	// counts are exact (all accesses sequential); counted runs of
	// non-countable fragments use the interpreter.
	fusedCountable bool
}

// firstRun marks a fragment smaller than one batch that has run once
// without being compiled (see resolveSpec).
var firstRun = &specProgram{}

// fusedRunner executes work items [lo, hi) of a fragment as a single
// hand-fused loop.
type fusedRunner func(w *worker, lo, hi int) error

// specAssign is the path resolution for one fragment run, threaded to
// every participating worker (the submitter and all pool helpers claim
// morsels of the same job, so all must run the same code).
type specAssign struct {
	batch *batchProg
	fused fusedRunner
	// classify enables the order-dependent Near/Rand classification of a
	// full counted run.
	classify bool
}

// specFor returns the fragment's cached specialization, compiling it on
// first use. Racing first executions compile redundantly but store
// identical content.
func specFor(f *kernel.Fragment) *specProgram {
	if v := f.LoadSpec(); v != nil && v.(*specProgram) != firstRun {
		return v.(*specProgram)
	}
	sp := &specProgram{}
	sp.batch, sp.reason = compileBatch(f)
	sp.fused, sp.fusedCountable = matchFused(f)
	f.StoreSpec(sp)
	return sp
}

// laneCount is the number of loop iterations a fragment runs at most.
func laneCount(f *kernel.Fragment) int {
	n := max(f.Extent, 1) * max(f.Intent, 1)
	if f.N > 0 && f.N < n {
		n = f.N
	}
	return n
}

// seqOnly reports whether every memory access of f is sequential — the
// condition for any compiled form to count events exactly.
func seqOnly(f *kernel.Fragment) bool {
	seq := func(instrs []kernel.Instr) bool {
		for _, in := range instrs {
			switch in.Op {
			case kernel.ILoad, kernel.ILoadValid, kernel.IStore:
				if !in.Seq {
					return false
				}
			}
		}
		return true
	}
	if !seq(f.Pre) || !seq(f.Post) || !seq(f.PostLoopBody) {
		return false
	}
	for _, l := range f.Loops {
		if !seq(l.Body) {
			return false
		}
	}
	return true
}

// resolveSpec picks the execution path for one fragment run and counts it,
// returning the path and, for an interpreted run, the reason. counting
// reports a full counted run, which demands exact event counts from the
// chosen path.
//
// A fragment that needs the split form (a prologue, epilogue, scratch
// array or multi-iteration loop; see flatLane) but has fewer lanes than
// one batch interprets its first run and compiles on its second: a plan
// that runs once (an ad-hoc statement missing the plan cache) never pays
// the analysis, while a cached plan pays it on its second run.
func resolveSpec(f *kernel.Fragment, mode SpecMode, counting, faults bool) (specAssign, string, string) {
	interp := func(reason string) (specAssign, string, string) {
		specInterpC.Inc()
		interpretedC[reason].Inc()
		return specAssign{classify: counting}, "interp", reason
	}
	cached := f.LoadSpec()
	switch {
	case mode == SpecializeOff:
		return interp(FallbackOff)
	case faults:
		return interp(FallbackFaults)
	case cached == nil && laneCount(f) < specBatchN && !flatLane(f):
		f.StoreSpec(firstRun)
		return interp(FallbackFirstRun)
	case counting && (cached == nil || cached == any(firstRun)) && !seqOnly(f):
		// No compiled form could count exactly; skip compiling one.
		return interp(FallbackCounted)
	}
	sp := specFor(f)
	if sp.fused != nil && mode != SpecializeBatchOnly && (!counting || sp.fusedCountable) {
		specFusedC.Inc()
		return specAssign{fused: sp.fused, classify: counting}, "fused", ""
	}
	if sp.batch == nil {
		return interp(sp.reason)
	}
	if counting && !sp.batch.countable {
		return interp(FallbackCounted)
	}
	specBatchC.Inc()
	return specAssign{batch: sp.batch, classify: counting}, "batch", ""
}

// ---------------------------------------------------------------------------
// Batch primitives

// batchPrim executes one instruction over the active lanes of a batch.
type batchPrim func(w *worker, b *bstate) error

// batchProg is a fragment compiled to batch primitives: one primitive
// sequence (segment) per loop for the lane side, plus the carried slice.
type batchProg struct {
	segs [][]batchPrim
	// span is the number of lanes per work item: the intent, or 1 when
	// every loop runs once per work item with idx == gid. width is the
	// column length: one batch, or fewer when the fragment has fewer
	// lanes.
	span, width int
	// colI/colF give each register's column in the int and float slabs
	// (-1: none; registers with disjoint live ranges share one), and
	// nColI/nColF the slab widths in columns.
	colI, colF   []int32
	nColI, nColF int
	// countable marks every compiled memory access sequential, making the
	// batch's event counts exact (see the package comment).
	countable bool
	// consts are the hoisted lane constants, filled by attachBatch.
	consts []constCol
	// readsIdx and readsGIV report whether the loop body reads RegIdx
	// other than as a load or store index, and RegGID or RegIV: runLanes
	// fills only the special columns something reads, and memory
	// primitives fill RegIdx's column on demand (bstate.fillIdx).
	readsIdx, readsGIV bool

	// split marks a carried phase. steps is the compiled carried slice in
	// body order, run lane-major (laneSteps); a lane that passed g lane
	// guards runs steps[:prefix[g]]. chains is its chain-major form (nil:
	// the slice is one chain without scans, which runs lane-major), and
	// nChains and nScans its chain and scan counts. guards is the number
	// of lane guards (lanes passing all of them have level guards). post
	// is the lane-pure post-loop body (nil: none, or interpreted slot by
	// slot).
	split           bool
	steps           []carriedStep
	prefix          []int
	stepsOnce       sync.Once
	compileSteps    func()
	chains          *chainProg
	nChains, nScans int
	guards          int
	post            *postProg
}

// laneSteps returns the lane-major carried steps and their level prefix,
// compiling them on first use.
func (bp *batchProg) laneSteps() ([]carriedStep, []int) {
	bp.stepsOnce.Do(bp.compileSteps)
	return bp.steps, bp.prefix
}

// bstate is a worker's per-batch register-column state. Columns live in
// the worker's pooled scratch; sel == nil means all n lanes are active,
// otherwise sel lists active lane offsets in ascending order. lvl holds
// the number of lane guards each lane passed (maintained for split
// programs). item is the work item whose carried state is open (-1:
// none); while its closing fails it stays open, naming the item to
// replay.
//
// The chain-major carried phase adds the carried columns ci/cf, the lanes
// of each guard level above 0 with a cursor per level, the current
// segment's lanes per level, and the slot-interval scratch of the
// disjointness check.
type bstate struct {
	n      int
	sel    []int32
	selBuf []int32
	lvl    []int32
	ri     [][]int64
	rf     [][]float64
	item   int
	ci     [][]int64
	cf     [][]float64
	lanes  [][]int32
	cur    []int
	seg    [][]int32
	iv     [][2]int64
	// base is the batch's first global index. idx is RegIdx's column;
	// ri[RegIdx] stays nil until fillIdx fills it, so a primitive that
	// reads RegIdx's column without calling fillIdx fails on a nil column
	// instead of reading another batch's indexes.
	base int
	idx  []int64
	finI []int64
	finF []float64
}

// fillIdx fills the RegIdx column of the batch's first n lanes, once.
func (b *bstate) fillIdx(n int) {
	if b.ri[kernel.RegIdx] != nil {
		return
	}
	idxc := b.idx[:n]
	for i := range idxc {
		idxc[i] = int64(b.base + i)
	}
	b.ri[kernel.RegIdx] = b.idx
}

// dense reports whether the batch's index column a of register ar holds
// the consecutive in-range indexes base, base+1, … of a buffer of
// length ln over all lanes, filling RegIdx's column otherwise.
func (b *bstate) dense(ar kernel.Reg, ln int64) bool {
	if ar != kernel.RegIdx {
		return false
	}
	if b.sel == nil && int64(b.base+b.n) <= ln {
		return true
	}
	b.fillIdx(b.n)
	return false
}

// active returns the live lane count of the batch.
func (b *bstate) active() int {
	if b.sel == nil {
		return b.n
	}
	return len(b.sel)
}

// compileBatch translates the fragment into batch primitives, or returns
// nil and the reason when it is not eligible. Eligibility and the
// lane/carried split are decided entirely by the verifier's fragment facts
// (verify.BatchFacts), so the specializer only translates instructions.
func compileBatch(f *kernel.Fragment) (*batchProg, string) {
	facts := verify.BatchFacts(f)
	if !facts.BatchEligible {
		return nil, facts.Reason
	}
	bp := &batchProg{
		span:      f.Intent,
		width:     min(specBatchN, laneCount(f)),
		countable: facts.Countable,
		split:     facts.Split,
		guards:    facts.LaneGuards,
	}
	if facts.PerItem {
		bp.span = 1
	}
	carried := make([]bool, len(f.Loops[0].Body))
	for _, i := range facts.Carried {
		carried[i] = true
	}
	hoist, consts := laneConsts(f, carried, facts.NRegs)
	bp.colI, bp.colF, bp.nColI, bp.nColF = assignColumns(f, carried, facts, hoist, consts)
	bp.consts = consts
	if bp.split {
		bp.chains, bp.nChains, bp.nScans = compileChains(f, facts), facts.Chains, len(facts.Scans)
		// A chain-major program needs its lane-major steps only for a
		// segment whose slot intervals overlap: compile them then.
		bp.compileSteps = func() { bp.steps, bp.prefix = compileCarried(f, facts) }
		if bp.chains == nil {
			// Unreachable failures, as for the lane side below.
			if bp.laneSteps(); bp.prefix == nil {
				return nil, verify.ReasonOpcode
			}
		}
		if facts.PostLanes {
			if bp.post = compilePost(f); bp.post == nil {
				return nil, verify.ReasonOpcode
			}
		}
	}
	for li, l := range f.Loops {
		for i, in := range l.Body {
			us, n := in.Uses()
			for k, u := range us[:n] {
				if u.Float {
					continue
				}
				// Uses lists a load's or store's index first.
				memIdx := k == 0 && !(li == 0 && carried[i]) &&
					(in.Op == kernel.ILoad || in.Op == kernel.ILoadValid || in.Op == kernel.IStore)
				bp.readsIdx = bp.readsIdx || u.R == kernel.RegIdx && !memIdx
				bp.readsGIV = bp.readsGIV || u.R == kernel.RegGID || u.R == kernel.RegIV
			}
		}
	}
	for li, l := range f.Loops {
		var seg []batchPrim
		g := 0
		for i, in := range l.Body {
			if li == 0 && carried[i] {
				continue
			}
			if r, flt, _ := in.Def(); (in.Op == kernel.IConstI || in.Op == kernel.IConstF) && hoist[regKey(r, flt, facts.NRegs)] >= 0 {
				continue // filled once by attachBatch
			}
			var p batchPrim
			if in.Op == kernel.IGuard {
				p = primGuard(in, int32(g))
				g++
			} else {
				p = compilePrim(in)
			}
			if p == nil {
				// Unreachable for fact-eligible fragments (the lane side
				// never holds scratch accesses); kept as a belt against the
				// two drifting apart.
				return nil, verify.ReasonOpcode
			}
			seg = append(seg, p)
		}
		bp.segs = append(bp.segs, seg)
	}
	return bp, ""
}

// regKey indexes the per-register tables of the batch compiler: the
// integer file, then the float file, n registers each.
func regKey(r kernel.Reg, flt bool, n int) int {
	if flt {
		return n + int(r)
	}
	return int(r)
}

// constCol is a hoisted lane constant: column col, filled once per worker
// with i or, in the float file, f.
type constCol struct {
	col int32
	flt bool
	i   int64
	f   float64
}

// laneConsts finds the lane registers defined exactly once on the lane
// side, by a constant. Constants with equal values share one column,
// filled once when a worker attaches the program, so they cost no
// primitive per batch. hoist gives each register key (regKey) the index
// of its value in consts, or -1; assignColumns places the columns.
func laneConsts(f *kernel.Fragment, carried []bool, n int) (hoist []int32, consts []constCol) {
	// The first pass marks each register key unseen (-1), defined once by
	// a constant (-2) or disqualified (-3); the second numbers the values.
	hoist = make([]int32, 2*n)
	for i := range hoist {
		hoist[i] = -1
	}
	for pass := 0; pass < 2; pass++ {
		for li, l := range f.Loops {
			for i, in := range l.Body {
				r, flt, ok := in.Def()
				if !ok || li == 0 && carried[i] {
					continue
				}
				k := regKey(r, flt, n)
				konst := in.Op == kernel.IConstI || in.Op == kernel.IConstF
				switch {
				case pass == 0 && hoist[k] == -1 && konst:
					hoist[k] = -2
				case pass == 0:
					hoist[k] = -3
				case hoist[k] == -2:
					c := constCol{flt: flt, i: in.Imm, f: in.FImm}
					v := 0
					for v < len(consts) && (consts[v].flt != c.flt || consts[v].i != c.i ||
						math.Float64bits(consts[v].f) != math.Float64bits(c.f)) {
						v++
					}
					if v == len(consts) {
						consts = append(consts, c)
					}
					hoist[k] = int32(v)
				}
			}
		}
	}
	for k, v := range hoist {
		if v < 0 {
			hoist[k] = -1
		}
	}
	return hoist, consts
}

// assignColumns gives every lane register a column of its file, sharing
// columns between registers whose live ranges — first definition to last
// use, in lane-side order over all loops — do not overlap. Hoisted
// constants (laneConsts) own a column per value, and imports stay live to
// the end of the batch, when the carried phase reads them. A column is
// released only after the instruction that last reads it has its own
// result column, so no primitive writes a column it is reading.
func assignColumns(f *kernel.Fragment, carried []bool, facts verify.Facts, hoist []int32, consts []constCol) (colI, colF []int32, nI, nF int) {
	n := facts.NRegs
	key := func(r kernel.Reg, flt bool) int { return regKey(r, flt, n) }
	lane := func(yield func(int32, kernel.Instr)) {
		pos := int32(0)
		for li, l := range f.Loops {
			for i, in := range l.Body {
				if li == 0 && carried[i] {
					continue
				}
				yield(pos, in)
				pos++
			}
		}
	}
	last := make([]int32, 2*n)
	lane(func(pos int32, in kernel.Instr) {
		us, k := in.Uses()
		for _, u := range us[:k] {
			last[key(u.R, u.Float)] = pos
		}
		if r, flt, ok := in.Def(); ok {
			last[key(r, flt)] = max(last[key(r, flt)], pos)
		}
	})
	for _, r := range facts.ImportI {
		last[key(r, false)] = math.MaxInt32
	}
	for _, r := range facts.ImportF {
		last[key(r, true)] = math.MaxInt32
	}
	cols := make([]int32, 2*n)
	for i := range cols {
		cols[i] = -1
	}
	// The specials are written up front and read anywhere, and so are the
	// hoisted constants.
	cols[kernel.RegGID], cols[kernel.RegIV], cols[kernel.RegIdx] = 0, 1, 2
	count := [2]int{3, 0}
	var free [2][]int32
	file := func(flt bool) int {
		if flt {
			return 1
		}
		return 0
	}
	for i := range consts {
		consts[i].col = int32(count[file(consts[i].flt)])
		count[file(consts[i].flt)]++
	}
	for k, v := range hoist {
		if v >= 0 {
			cols[k], last[k] = consts[v].col, math.MaxInt32
		}
	}
	lane(func(pos int32, in kernel.Instr) {
		r, flt, def := in.Def()
		if k := key(r, flt); def && cols[k] < 0 {
			fi := file(flt)
			if m := len(free[fi]); m > 0 {
				cols[k], free[fi] = free[fi][m-1], free[fi][:m-1]
			} else {
				cols[k] = int32(count[fi])
				count[fi]++
			}
		}
		release := func(r kernel.Reg, flt bool) {
			if k := key(r, flt); r >= kernel.FirstFree && last[k] == pos {
				free[file(flt)] = append(free[file(flt)], cols[k])
				last[k] = -1
			}
		}
		us, k := in.Uses()
		for _, u := range us[:k] {
			release(u.R, u.Float)
		}
		if def {
			release(r, flt)
		}
	})
	return cols[:n], cols[n:], count[0], count[1]
}

// attachBatch wires the worker's pooled scratch up as register columns for
// bp, and for its post-loop body, whose columns must not alias the lane
// columns: a work item can close mid-batch. Columns are not zeroed:
// compileBatch proved every read is preceded by a definition in the same
// segment.
func (w *worker) attachBatch(bp *batchProg) {
	sc := w.scratch
	wd, nregs := bp.width, len(bp.colI)
	pw, pregs, pI, pF := 0, 0, 0, 0
	if pp := bp.post; pp != nil {
		pw, pregs, pI, pF = pp.width, len(pp.colI), pp.nColI, pp.nColF
	}
	// The chain-major carried phase's columns and per-item scan finals
	// follow the lane and post-loop columns.
	cI, cF, finI, finF := 0, 0, 0, 0
	if cp := bp.chains; cp != nil {
		cI, cF, finI, finF = cp.nColI, cp.nColF, cp.nFinI, cp.nFinF
	}
	ints := grow(&sc.bcols, bp.nColI*wd+pI*pw+cI*wd+finI)
	flts := grow(&sc.bfcols, bp.nColF*wd+pF*pw+cF*wd+finF)
	if cap(sc.bri) < nregs+pregs {
		sc.bri = make([][]int64, nregs+pregs)
		sc.brf = make([][]float64, nregs+pregs)
	}
	sc.bri = sc.bri[:nregs+pregs]
	sc.brf = sc.brf[:nregs+pregs]
	clear(sc.bri)
	clear(sc.brf)
	wire := func(ri [][]int64, rf [][]float64, colI, colF []int32, ints []int64, flts []float64, wd int) {
		for r, c := range colI {
			if c >= 0 {
				ri[r] = ints[int(c)*wd : int(c+1)*wd]
			}
		}
		for r, c := range colF {
			if c >= 0 {
				rf[r] = flts[int(c)*wd : int(c+1)*wd]
			}
		}
	}
	wire(sc.bri, sc.brf, bp.colI, bp.colF, ints, flts, wd)
	for _, c := range bp.consts {
		if c.flt {
			fill(flts[int(c.col)*wd:int(c.col+1)*wd], c.f)
		} else {
			fill(ints[int(c.col)*wd:int(c.col+1)*wd], c.i)
		}
	}
	if cap(sc.bsel) < wd {
		sc.bsel = make([]int32, wd)
	}
	if cap(sc.blvl) < wd {
		sc.blvl = make([]int32, wd)
	}
	if bp.guards == 0 {
		// Without lane guards every lane stays at level 0.
		clear(sc.blvl[:wd])
	}
	w.bst = bstate{ri: sc.bri[:nregs], rf: sc.brf[:nregs], selBuf: sc.bsel[:0], lvl: sc.blvl[:cap(sc.blvl)], item: -1}
	w.bst.idx, w.bst.ri[kernel.RegIdx] = w.bst.ri[kernel.RegIdx], nil
	if pp := bp.post; pp != nil {
		pri, prf := sc.bri[nregs:], sc.brf[nregs:]
		wire(pri, prf, pp.colI, pp.colF, ints[bp.nColI*wd:], flts[bp.nColF*wd:], pw)
		w.pst = bstate{ri: pri, rf: prf}
	}
	if cp := bp.chains; cp != nil {
		ci, cf := ints[bp.nColI*wd+pI*pw:], flts[bp.nColF*wd+pF*pw:]
		b := &w.bst
		b.ci, b.cf = resize(&sc.bci, cI), resize(&sc.bcf, cF)
		for c := range b.ci {
			b.ci[c] = ci[c*wd : (c+1)*wd]
		}
		for c := range b.cf {
			b.cf[c] = cf[c*wd : (c+1)*wd]
		}
		b.finI, b.finF = ci[cI*wd:], cf[cF*wd:]
		levels := len(cp.used)
		b.lanes, b.cur, b.seg = resize(&sc.blanes, levels), resize(&sc.bcur, levels), resize(&sc.bseg, levels)
		b.iv = resize(&sc.biv, len(cp.chains))[:0]
		lists := resize(&sc.blists, levels*wd)
		for g := 1; g < levels; g++ {
			if cp.used[g] && g != bp.guards {
				b.lanes[g] = lists[g*wd : g*wd : (g+1)*wd]
			}
		}
	}
}

// resize returns *buf resized to n cleared elements, reusing its capacity.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// tickN retires n items' worth of checkpoint budget at once — the batch
// paths' replacement for per-item tick. Specialized paths never run with
// fault injection enabled (resolveSpec falls back to the interpreter), so
// the per-item hook is not replayed here.
func (w *worker) tickN(n int) error {
	w.budget -= n
	if w.budget > 0 {
		return nil
	}
	w.budget = checkInterval
	if w.stop != nil && w.stop.Load() {
		return errAborted
	}
	if w.ctx != nil {
		if err := w.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// runBatch executes work items [lo, hi) through the batch primitives: the
// lanes idx ∈ [lo·span, min(hi·span, N)) in batches of bp.width.
func (w *worker) runBatch(lo, hi int) error {
	bp := w.batch
	f := w.f
	first, end := lo*bp.span, hi*bp.span
	if f.N > 0 && end > f.N {
		// Lanes with idx >= N skip their iteration.
		end = f.N
	}
	w.bst.item = -1
	for base := first; base < end; base += bp.width {
		n := min(bp.width, end-base)
		if w.checks {
			if err := w.tickN(n); err != nil {
				return err
			}
		}
		if err := w.runLanes(base, n); err != nil {
			// Instruction-major order may meet a later lane's error first;
			// the interpreter re-runs the batch's work items from their
			// start — and the still open item before them, whose closing
			// element-major order meets first — (Pre re-initializes every
			// carry, and no buffer the fragment loads is one it stores) and
			// reports the error element-major order meets first.
			from := base / bp.span
			if it := w.bst.item; it >= 0 && it < from {
				from = it
			}
			if rerr := w.runInterp(from, (base+n-1)/bp.span+1); rerr != nil {
				return rerr
			}
			return err
		}
	}
	if !bp.split {
		return nil
	}
	// Close the open work item, then run the work items whose iterations
	// all lie at or past N: they have no lanes but still run Pre and Post.
	if err := w.leaveItem(); err != nil {
		return err
	}
	next := lo
	if end > first {
		next = (end-1)/bp.span + 1
	}
	for gid := next; gid < hi; gid++ {
		if w.checks {
			if err := w.tickN(1); err != nil {
				return err
			}
		}
		if err := w.enterItem(gid); err != nil {
			return err
		}
		if err := w.leaveItem(); err != nil {
			return err
		}
	}
	return nil
}

// runLanes runs one batch of n lanes starting at global index base: the
// lane side instruction-major, then the carried phase (runCarried).
func (w *worker) runLanes(base, n int) error {
	bp := w.batch
	b := &w.bst
	b.base, b.ri[kernel.RegIdx] = base, nil
	if bp.readsIdx {
		b.fillIdx(n)
	}
	if bp.readsGIV {
		gidc, ivc := b.ri[kernel.RegGID][:n], b.ri[kernel.RegIV][:n]
		g, v := base/bp.span, base%bp.span
		for i := range gidc {
			gidc[i], ivc[i] = int64(g), int64(v)
			if v++; v == bp.span {
				g, v = g+1, 0
			}
		}
	}
	if bp.split && bp.guards > 0 {
		lvl := b.lvl[:n]
		for i := range lvl {
			lvl[i] = int32(bp.guards)
		}
	}
	b.n = n
	for _, seg := range bp.segs {
		b.sel = nil
		for _, p := range seg {
			if err := p(w, b); err != nil {
				return err
			}
			if b.sel != nil && len(b.sel) == 0 {
				break // every lane guarded off: skip the rest of the segment
			}
		}
		if w.count {
			w.stats.Items += int64(n)
		}
	}
	if !bp.split {
		return nil
	}
	return w.runCarried(base, n)
}

// enterItem closes the open work item and opens gid.
func (w *worker) enterItem(gid int) error {
	if err := w.leaveItem(); err != nil {
		return err
	}
	w.bst.item = gid
	return w.beginItem(gid)
}

// leaveItem closes the open work item, if any: Post, then the post-loop
// body over every scratch slot — as batch primitives when it is lane-pure.
func (w *worker) leaveItem() error {
	if w.bst.item < 0 {
		return nil
	}
	var err error
	if w.batch.post == nil {
		err = w.endItem()
	} else if err = w.exec(w.f.Post); err == nil {
		err = w.flush(w.bst.item)
	}
	if err != nil {
		return err
	}
	w.bst.item = -1
	return nil
}

// countSeqAccess mirrors the interpreter's countAccess for the batch
// paths, over lanes active lanes. Random accesses count only their
// materialized bytes: the batch path runs them only for light runs, which
// leave the order-dependent classification out.
func (w *worker) countSeqAccess(in kernel.Instr, buf *Buffer, lanes int64) {
	if !w.count {
		return
	}
	if in.Op == kernel.IStore {
		w.stats.StoreBytes += 8 * lanes
		if buf.Valid != nil {
			w.stats.StoreBytes += lanes
		}
	}
	width := int64(8)
	if in.Op == kernel.ILoadValid {
		if buf.Valid == nil {
			w.stats.IntOps += 2 * lanes
			return
		}
		width = 1
	}
	if in.Seq {
		w.stats.SeqBytes += width * lanes
	}
}

// primGuard compiles the g-th lane guard (from 0): it compacts the
// selection to the lanes whose condition holds, and records that each
// lane it drops passed g guards, which bounds the carried instructions
// that lane runs.
func primGuard(in kernel.Instr, g int32) batchPrim {
	a := in.A
	return func(w *worker, b *bstate) error {
		cond, lvl := b.ri[a], b.lvl
		if w.count {
			w.stats.Guards += int64(b.active())
		}
		out := b.selBuf[:0]
		if s := b.sel; s != nil {
			out = s[:0] // in-place compaction: writes trail reads
			for _, i := range s {
				if cond[i] != 0 {
					out = append(out, i)
				} else {
					lvl[i] = g
				}
			}
		} else {
			for i := 0; i < b.n; i++ {
				if cond[i] != 0 {
					out = append(out, int32(i))
				} else {
					lvl[i] = g
				}
			}
		}
		b.sel = out
		if w.count {
			w.stats.GuardsPass += int64(len(b.sel))
		}
		return nil
	}
}

// compilePrim builds the batch primitive for one instruction, or nil when
// the instruction cannot be compiled.
func compilePrim(in kernel.Instr) batchPrim {
	switch in.Op {
	case kernel.IConstI:
		dst, imm := in.Dst, in.Imm
		return func(_ *worker, b *bstate) error {
			fill(b.ri[dst][:b.n], imm)
			return nil
		}
	case kernel.IConstF:
		dst, imm := in.Dst, in.FImm
		return func(_ *worker, b *bstate) error {
			fill(b.rf[dst][:b.n], imm)
			return nil
		}
	case kernel.IMov:
		dst, a, flt := in.Dst, in.A, in.Float
		return func(_ *worker, b *bstate) error {
			if flt {
				d, src := b.rf[dst], b.rf[a]
				if s := b.sel; s != nil {
					for _, i := range s {
						d[i] = src[i]
					}
				} else {
					copy(d[:b.n], src[:b.n])
				}
			} else {
				d, src := b.ri[dst], b.ri[a]
				if s := b.sel; s != nil {
					for _, i := range s {
						d[i] = src[i]
					}
				} else {
					copy(d[:b.n], src[:b.n])
				}
			}
			return nil
		}
	case kernel.IBin:
		if in.Float {
			return primBinF(in)
		}
		return primBinI(in)
	case kernel.ISel:
		dst, a, bb, cc, flt := in.Dst, in.A, in.B, in.C, in.Float
		return func(w *worker, b *bstate) error {
			cond := b.ri[a]
			if w.count {
				w.stats.IntOps += int64(b.active())
			}
			if flt {
				d, x, y := b.rf[dst], b.rf[bb], b.rf[cc]
				if s := b.sel; s != nil {
					for _, i := range s {
						if cond[i] != 0 {
							d[i] = x[i]
						} else {
							d[i] = y[i]
						}
					}
				} else {
					for i := 0; i < b.n; i++ {
						if cond[i] != 0 {
							d[i] = x[i]
						} else {
							d[i] = y[i]
						}
					}
				}
			} else {
				d, x, y := b.ri[dst], b.ri[bb], b.ri[cc]
				if s := b.sel; s != nil {
					for _, i := range s {
						if cond[i] != 0 {
							d[i] = x[i]
						} else {
							d[i] = y[i]
						}
					}
				} else {
					for i := 0; i < b.n; i++ {
						if cond[i] != 0 {
							d[i] = x[i]
						} else {
							d[i] = y[i]
						}
					}
				}
			}
			return nil
		}
	case kernel.ILoad:
		return primLoad(in)
	case kernel.ILoadLoc:
		return primLoadLoc(in)
	case kernel.ILoadValid:
		return primLoadValid(in)
	case kernel.IStore:
		return primStore(in)
	case kernel.ICastIF:
		dst, a := in.Dst, in.A
		return func(_ *worker, b *bstate) error {
			d, src := b.rf[dst], b.ri[a]
			if s := b.sel; s != nil {
				for _, i := range s {
					d[i] = float64(src[i])
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = float64(src[i])
				}
			}
			return nil
		}
	case kernel.ICastFI:
		dst, a := in.Dst, in.A
		return func(_ *worker, b *bstate) error {
			d, src := b.ri[dst], b.rf[a]
			if s := b.sel; s != nil {
				for _, i := range s {
					d[i] = int64(src[i])
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = int64(src[i])
				}
			}
			return nil
		}
	}
	return nil
}

// fill sets every element of d to v. A constant primitive fills every
// lane of the batch, selected or not: no column holds a value another
// lane still needs outside the constant's live range, and a straight fill
// beats a scatter through the selection.
func fill[T int64 | float64](d []T, v T) {
	for i := range d {
		d[i] = v
	}
}

// primBinI compiles an integer IBin. The hot arithmetic and comparison
// operators run as small per-operator loops (intBinLoops), each compiled
// on its own so the loop stays in registers and branch-free; trapping and
// rare operators share a per-element loop through ibin so error messages
// match the interpreter exactly.
func primBinI(in kernel.Instr) batchPrim {
	op, dr, ar, br := in.BOp, in.Dst, in.A, in.B
	var loop binLoop[int64]
	if int(op) < len(intBinLoops) {
		loop = intBinLoops[op]
	}
	return func(w *worker, b *bstate) error {
		d, x, y := b.ri[dr], b.ri[ar], b.ri[br]
		if w.count {
			w.stats.IntOps += int64(b.active())
		}
		if loop != nil {
			loop(d, x, y, b.sel, b.n)
			return nil
		}
		if s := b.sel; s != nil {
			for _, i := range s {
				v, err := ibin(op, x[i], y[i])
				if err != nil {
					return err
				}
				d[i] = v
			}
			return nil
		}
		for i := 0; i < b.n; i++ {
			v, err := ibin(op, x[i], y[i])
			if err != nil {
				return err
			}
			d[i] = v
		}
		return nil
	}
}

// primBinF compiles a float IBin, with the same hot/rare split as
// primBinI.
func primBinF(in kernel.Instr) batchPrim {
	op, dr, ar, br := in.BOp, in.Dst, in.A, in.B
	var loop binLoop[float64]
	if int(op) < len(fltBinLoops) {
		loop = fltBinLoops[op]
	}
	return func(w *worker, b *bstate) error {
		d, x, y := b.rf[dr], b.rf[ar], b.rf[br]
		if w.count {
			w.stats.FloatOps += int64(b.active())
		}
		if loop != nil {
			loop(d, x, y, b.sel, b.n)
			return nil
		}
		if s := b.sel; s != nil {
			for _, i := range s {
				v, err := fbin(op, x[i], y[i])
				if err != nil {
					return err
				}
				d[i] = v
			}
			return nil
		}
		for i := 0; i < b.n; i++ {
			v, err := fbin(op, x[i], y[i])
			if err != nil {
				return err
			}
			d[i] = v
		}
		return nil
	}
}

// binLoop applies one binary operator to the lanes of a batch: the
// selected ones when sel is non-nil, else the first n. Comparisons and
// logic produce 0/1 without branching on the data.
type binLoop[T int64 | float64] func(d, x, y []T, sel []int32, n int)

// intBinLoops holds a loop per non-trapping integer operator (nil: use
// ibin, which reports division and modulo by zero).
var intBinLoops = [...]binLoop[int64]{
	kernel.BAdd: func(d, x, y []int64, sel []int32, n int) {
		if sel != nil {
			for _, i := range sel {
				d[i] = x[i] + y[i]
			}
			return
		}
		d = d[:n]
		x, y = x[:len(d)], y[:len(d)]
		for i := range d {
			d[i] = x[i] + y[i]
		}
	},
	kernel.BSub: func(d, x, y []int64, sel []int32, n int) {
		if sel != nil {
			for _, i := range sel {
				d[i] = x[i] - y[i]
			}
			return
		}
		d = d[:n]
		x, y = x[:len(d)], y[:len(d)]
		for i := range d {
			d[i] = x[i] - y[i]
		}
	},
	kernel.BMul: func(d, x, y []int64, sel []int32, n int) {
		if sel != nil {
			for _, i := range sel {
				d[i] = x[i] * y[i]
			}
			return
		}
		d = d[:n]
		x, y = x[:len(d)], y[:len(d)]
		for i := range d {
			d[i] = x[i] * y[i]
		}
	},
	kernel.BGt: func(d, x, y []int64, sel []int32, n int) {
		if sel != nil {
			for _, i := range sel {
				d[i] = b2i(x[i] > y[i])
			}
			return
		}
		d = d[:n]
		x, y = x[:len(d)], y[:len(d)]
		for i := range d {
			d[i] = b2i(x[i] > y[i])
		}
	},
	kernel.BGe: func(d, x, y []int64, sel []int32, n int) {
		if sel != nil {
			for _, i := range sel {
				d[i] = b2i(x[i] >= y[i])
			}
			return
		}
		d = d[:n]
		x, y = x[:len(d)], y[:len(d)]
		for i := range d {
			d[i] = b2i(x[i] >= y[i])
		}
	},
	kernel.BEq: func(d, x, y []int64, sel []int32, n int) {
		if sel != nil {
			for _, i := range sel {
				d[i] = b2i(x[i] == y[i])
			}
			return
		}
		d = d[:n]
		x, y = x[:len(d)], y[:len(d)]
		for i := range d {
			d[i] = b2i(x[i] == y[i])
		}
	},
	kernel.BMin: func(d, x, y []int64, sel []int32, n int) {
		if sel != nil {
			for _, i := range sel {
				d[i] = min(x[i], y[i])
			}
			return
		}
		d = d[:n]
		x, y = x[:len(d)], y[:len(d)]
		for i := range d {
			d[i] = min(x[i], y[i])
		}
	},
	kernel.BMax: func(d, x, y []int64, sel []int32, n int) {
		if sel != nil {
			for _, i := range sel {
				d[i] = max(x[i], y[i])
			}
			return
		}
		d = d[:n]
		x, y = x[:len(d)], y[:len(d)]
		for i := range d {
			d[i] = max(x[i], y[i])
		}
	},
	kernel.BAnd: func(d, x, y []int64, sel []int32, n int) {
		if sel != nil {
			for _, i := range sel {
				d[i] = b2i(x[i] != 0) & b2i(y[i] != 0)
			}
			return
		}
		d = d[:n]
		x, y = x[:len(d)], y[:len(d)]
		for i := range d {
			d[i] = b2i(x[i] != 0) & b2i(y[i] != 0)
		}
	},
	kernel.BOr: func(d, x, y []int64, sel []int32, n int) {
		if sel != nil {
			for _, i := range sel {
				d[i] = b2i(x[i]|y[i] != 0)
			}
			return
		}
		d = d[:n]
		x, y = x[:len(d)], y[:len(d)]
		for i := range d {
			d[i] = b2i(x[i]|y[i] != 0)
		}
	},
}

// fltBinLoops holds a loop per hot float operator (nil: use fbin).
var fltBinLoops = [...]binLoop[float64]{
	kernel.BAdd: func(d, x, y []float64, sel []int32, n int) {
		if sel != nil {
			for _, i := range sel {
				d[i] = x[i] + y[i]
			}
			return
		}
		d = d[:n]
		x, y = x[:len(d)], y[:len(d)]
		for i := range d {
			d[i] = x[i] + y[i]
		}
	},
	kernel.BSub: func(d, x, y []float64, sel []int32, n int) {
		if sel != nil {
			for _, i := range sel {
				d[i] = x[i] - y[i]
			}
			return
		}
		d = d[:n]
		x, y = x[:len(d)], y[:len(d)]
		for i := range d {
			d[i] = x[i] - y[i]
		}
	},
	kernel.BMul: func(d, x, y []float64, sel []int32, n int) {
		if sel != nil {
			for _, i := range sel {
				d[i] = x[i] * y[i]
			}
			return
		}
		d = d[:n]
		x, y = x[:len(d)], y[:len(d)]
		for i := range d {
			d[i] = x[i] * y[i]
		}
	},
}

// primLoad compiles ILoad. Loads indexed directly by RegIdx over a dense
// batch reduce to a bounds-checked copy.
func primLoad(in kernel.Instr) batchPrim {
	dr, ar, bi, flt := in.Dst, in.A, in.Buf, in.Float
	instr := in
	return func(w *worker, b *bstate) error {
		buf := w.env.Bufs[bi]
		ln := int64(buf.Len())
		dense := b.dense(ar, ln)
		a := b.ri[ar]
		s := b.sel
		if flt {
			d := b.rf[dr]
			if dense {
				// A dense batch loading at RegIdx reads consecutive slots:
				// one range check, then a straight copy. Out-of-range
				// batches take the generic loop so the error names the
				// first offending index, as the interpreter would.
				lo := int64(b.base)
				copy(d[:b.n], buf.F[lo:lo+int64(b.n)])
			} else if s != nil {
				for _, i := range s {
					ix := a[i]
					if ix < 0 || ix >= ln {
						return fmt.Errorf("load out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
					}
					d[i] = buf.F[ix]
				}
			} else {
				for i := 0; i < b.n; i++ {
					ix := a[i]
					if ix < 0 || ix >= ln {
						return fmt.Errorf("load out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
					}
					d[i] = buf.F[ix]
				}
			}
		} else {
			d := b.ri[dr]
			if dense {
				lo := int64(b.base)
				copy(d[:b.n], buf.I[lo:lo+int64(b.n)])
			} else if s != nil {
				for _, i := range s {
					ix := a[i]
					if ix < 0 || ix >= ln {
						return fmt.Errorf("load out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
					}
					d[i] = buf.I[ix]
				}
			} else {
				for i := 0; i < b.n; i++ {
					ix := a[i]
					if ix < 0 || ix >= ln {
						return fmt.Errorf("load out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
					}
					d[i] = buf.I[ix]
				}
			}
		}
		w.countSeqAccess(instr, buf, int64(b.active()))
		return nil
	}
}

// primLoadLoc compiles ILoadLoc, the locals gather of a post-loop body.
// Loads at RegJ over a dense batch read consecutive slots: one range
// check, then a straight copy.
func primLoadLoc(in kernel.Instr) batchPrim {
	dr, ar, flt := in.Dst, in.A, in.Float
	dense := ar == kernel.RegJ
	return func(w *worker, b *bstate) error {
		var err error
		if flt {
			err = gatherLoc(b.rf[dr], b.ri[ar], w.locF, int64(w.f.Locals), dense, b)
		} else {
			err = gatherLoc(b.ri[dr], b.ri[ar], w.locI, int64(w.f.Locals), dense, b)
		}
		if err != nil {
			return err
		}
		if w.count {
			w.stats.LocalOps += int64(b.active())
		}
		return nil
	}
}

// gatherLoc sets d[i] = loc[a[i]] over the active lanes of b, failing like
// the interpreter on the first index outside the size slots. dense marks
// a column ascending by one from a[0].
func gatherLoc[T int64 | float64](d []T, a []int64, loc []T, size int64, dense bool, b *bstate) error {
	if dense && b.sel == nil && b.n > 0 && a[0] >= 0 && a[b.n-1] < size {
		copy(d[:b.n], loc[a[0]:a[0]+int64(b.n)])
		return nil
	}
	get := func(ix int64) (T, error) {
		if ix < 0 || ix >= size {
			return 0, fmt.Errorf("local load out of bounds: idx %d size %d", ix, size)
		}
		return loc[ix], nil
	}
	var err error
	if s := b.sel; s != nil {
		for _, i := range s {
			if d[i], err = get(a[i]); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < b.n; i++ {
		if d[i], err = get(a[i]); err != nil {
			return err
		}
	}
	return nil
}

// primLoadValid compiles ILoadValid: out-of-bounds probes yield 0, maskless
// buffers yield 1, exactly like the interpreter.
func primLoadValid(in kernel.Instr) batchPrim {
	dr, ar, bi := in.Dst, in.A, in.Buf
	instr := in
	return func(w *worker, b *bstate) error {
		buf := w.env.Bufs[bi]
		ln := int64(buf.Len())
		if ar == kernel.RegIdx {
			b.fillIdx(b.n)
		}
		a := b.ri[ar]
		d := b.ri[dr]
		valid := buf.Valid
		if s := b.sel; s != nil {
			for _, i := range s {
				ix := a[i]
				if ix < 0 || ix >= ln {
					d[i] = 0
				} else if valid == nil || valid[ix] {
					d[i] = 1
				} else {
					d[i] = 0
				}
			}
		} else {
			for i := 0; i < b.n; i++ {
				ix := a[i]
				if ix < 0 || ix >= ln {
					d[i] = 0
				} else if valid == nil || valid[ix] {
					d[i] = 1
				} else {
					d[i] = 0
				}
			}
		}
		w.countSeqAccess(instr, buf, int64(b.active()))
		return nil
	}
}

// primStore compiles IStore, including the C-register conditional-validity
// protocol (empty slots store the reserved zero representation).
func primStore(in kernel.Instr) batchPrim {
	ar, br, cr, bi, flt := in.A, in.B, in.C, in.Buf, in.Float
	instr := in
	return func(w *worker, b *bstate) error {
		buf := w.env.Bufs[bi]
		ln := int64(buf.Len())
		var cond []int64
		if buf.Valid != nil && cr > 0 {
			cond = b.ri[cr]
		}
		dense := buf.Valid == nil && b.dense(ar, ln)
		if ar == kernel.RegIdx && !dense {
			b.fillIdx(b.n)
		}
		a := b.ri[ar]
		s := b.sel
		if flt {
			src := b.rf[br]
			if dense {
				// Dense contiguous store without a validity mask: one range
				// check, then a straight copy.
				lo := int64(b.base)
				copy(buf.F[lo:lo+int64(b.n)], src[:b.n])
			} else if s != nil {
				for _, i := range s {
					ix := a[i]
					if ix < 0 || ix >= ln {
						return fmt.Errorf("store out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
					}
					v, valid := src[i], true
					if cond != nil && cond[i] == 0 {
						v, valid = 0, false
					}
					buf.F[ix] = v
					if buf.Valid != nil {
						buf.Valid[ix] = valid
					}
				}
			} else {
				for i := 0; i < b.n; i++ {
					ix := a[i]
					if ix < 0 || ix >= ln {
						return fmt.Errorf("store out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
					}
					v, valid := src[i], true
					if cond != nil && cond[i] == 0 {
						v, valid = 0, false
					}
					buf.F[ix] = v
					if buf.Valid != nil {
						buf.Valid[ix] = valid
					}
				}
			}
		} else {
			src := b.ri[br]
			if dense {
				lo := int64(b.base)
				copy(buf.I[lo:lo+int64(b.n)], src[:b.n])
			} else if s != nil {
				for _, i := range s {
					ix := a[i]
					if ix < 0 || ix >= ln {
						return fmt.Errorf("store out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
					}
					v, valid := src[i], true
					if cond != nil && cond[i] == 0 {
						v, valid = 0, false
					}
					buf.I[ix] = v
					if buf.Valid != nil {
						buf.Valid[ix] = valid
					}
				}
			} else {
				for i := 0; i < b.n; i++ {
					ix := a[i]
					if ix < 0 || ix >= ln {
						return fmt.Errorf("store out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
					}
					v, valid := src[i], true
					if cond != nil && cond[i] == 0 {
						v, valid = 0, false
					}
					buf.I[ix] = v
					if buf.Valid != nil {
						buf.Valid[ix] = valid
					}
				}
			}
		}
		w.countSeqAccess(instr, buf, int64(b.active()))
		return nil
	}
}
