// Fragment-level verification: register def-before-use with the executor's
// special-register contexts, buffer declaration consistency, loop-bound and
// geometry sanity, and an affine-index lattice that audits the compiler's
// sequential-vs-random access classification. The same analysis computes
// BatchFacts — the eligibility facts package exec's batch specializer
// consumes, making the verifier the single source of truth for
// specialization decisions.
package verify

import (
	"fmt"
	"sort"

	"voodoo/internal/kernel"
	"voodoo/internal/vector"
)

// fpos builds a fragment-scoped position.
func fpos(frag, section string, idx int) Pos {
	return Pos{Stmt: -1, Frag: frag, Section: section, Index: idx}
}

// Kernel verifies a whole compiled kernel: buffer declarations plus every
// fragment against those declarations.
func Kernel(k *kernel.Kernel) []Diagnostic {
	var diags []Diagnostic
	for i, b := range k.Bufs {
		if b.Size < 0 {
			diags = errorf(diags, NoPos, RuleBufDecl, "buf %d (%s): negative size %d", i, b.Name, b.Size)
		}
		if b.Name == "" {
			diags = errorf(diags, NoPos, RuleBufDecl, "buf %d: empty name", i)
		}
	}
	for _, f := range k.Frags {
		diags = append(diags, Fragment(f, k.Bufs)...)
	}
	return diags
}

// Fragment verifies one fragment. bufs supplies the kernel's buffer
// declarations; pass nil to skip declaration-dependent rules (VF003-VF005).
//
// The def-before-use analysis models the executor's register contract
// exactly: the register file persists across work items within a worker, so
// a read with no prior definition observes a sibling item's leftovers and
// makes results depend on morsel boundaries. Special registers are defined
// contextually — RegGID from the work-item prologue on, RegIV/RegIdx once
// the first loop has started, RegJ only inside the post-loop body. A read
// inside a repeated body (a loop or the post-loop body) may see a
// definition from later in the same body — a loop-carried value — but
// only if an earlier section initializes it (VF012), so the first
// iteration of every work item starts from a defined value.
func Fragment(f *kernel.Fragment, bufs []kernel.BufDecl) []Diagnostic {
	v := &fragVerifier{f: f, bufs: bufs,
		defI:   map[kernel.Reg]bool{},
		defF:   map[kernel.Reg]bool{},
		cls:    map[kernel.Reg]affClass{},
		loads:  map[int]bool{},
		stores: map[int]bool{},
	}
	v.geometry()

	// RegGID is set before anything else runs. Affinity classes for all
	// specials are affine-in-the-index by construction.
	v.defI[kernel.RegGID] = true
	for _, r := range []kernel.Reg{kernel.RegGID, kernel.RegIV, kernel.RegIdx, kernel.RegJ} {
		v.cls[r] = affAffine
	}

	v.section("pre", f.Pre, false)
	for li, l := range f.Loops {
		name := fmt.Sprintf("loop%d", li)
		v.loopBound(name, l)
		// RegIV and RegIdx are (re)assigned by the loop machinery before
		// the body executes, and keep their last value afterwards.
		v.defI[kernel.RegIV], v.defI[kernel.RegIdx] = true, true
		v.section(name, l.Body, true)
	}
	v.section("post", f.Post, false)
	if len(f.PostLoopBody) > 0 {
		if f.Locals <= 0 {
			v.diags = errorf(v.diags, fpos(f.Name, "postloop", -1), RuleLocals,
				"post-loop body with no locals (Locals=%d): body never runs", f.Locals)
		}
		v.defI[kernel.RegJ] = true
		v.section("postloop", f.PostLoopBody, true)
	}

	// VF010: a fragment that both loads and stores the same buffer has an
	// instruction-order hazard the batch specializer must (and does)
	// reject; flag it for human attention even on the interpreted path.
	var overlap []int
	for b := range v.stores {
		if v.loads[b] {
			overlap = append(overlap, b)
		}
	}
	sort.Ints(overlap)
	for _, b := range overlap {
		v.diags = warnf(v.diags, fpos(f.Name, "", -1), RuleRWOverlap,
			"buffer %d is both loaded and stored in this fragment", b)
	}
	return v.diags
}

// affClass is the affine-index lattice used to audit Seq markings:
// affConst (statically constant) < affAffine (affine in the work-item
// index) < affOther (data-dependent).
type affClass uint8

const (
	affConst affClass = iota
	affAffine
	affOther
)

type fragVerifier struct {
	f     *kernel.Fragment
	bufs  []kernel.BufDecl
	diags []Diagnostic

	defI, defF map[kernel.Reg]bool
	cls        map[kernel.Reg]affClass

	loads, stores map[int]bool
}

func (v *fragVerifier) class(r kernel.Reg) affClass {
	if r < 0 {
		return affOther
	}
	if c, ok := v.cls[r]; ok {
		return c
	}
	// Never-defined registers read as zero or leftovers; either way the
	// value is not affine in the index. Def-before-use reports the real
	// problem separately.
	return affOther
}

// geometry checks the fragment's index-space parameters (VF008, VF006).
func (v *fragVerifier) geometry() {
	f := v.f
	pos := fpos(f.Name, "", -1)
	if f.Extent < 0 || f.Intent < 0 || f.N < 0 {
		v.diags = errorf(v.diags, pos, RuleGeometry,
			"negative geometry: extent=%d intent=%d n=%d", f.Extent, f.Intent, f.N)
	}
	if f.Locals < 0 {
		v.diags = errorf(v.diags, pos, RuleLocals, "negative locals %d", f.Locals)
	}
	// N guards idx < N; an N beyond the index space means the tail is
	// silently never reached. Only checkable when no loop iterates past
	// Intent (a longer static bound extends the blocked index space).
	if f.Extent > 0 && f.Intent > 0 && f.N > f.Extent*f.Intent {
		extended := false
		for _, l := range f.Loops {
			bound := l.Bound
			if bound <= 0 {
				bound = f.Intent
			}
			if bound > f.Intent {
				extended = true
			}
		}
		if !extended {
			v.diags = errorf(v.diags, pos, RuleGeometry,
				"n=%d exceeds the index space extent*intent=%d", f.N, f.Extent*f.Intent)
		}
	}
}

// loopBound checks one loop's bound fields (VF007). Dynamic bound registers
// are read once per work item before the first iteration, so they must be
// integer-defined by the preceding sections.
func (v *fragVerifier) loopBound(name string, l kernel.Loop) {
	pos := fpos(v.f.Name, name, -1)
	if l.Bound < 0 {
		v.diags = errorf(v.diags, pos, RuleLoopBound, "negative loop bound %d", l.Bound)
	}
	if l.BoundReg > 0 && l.BoundReg < kernel.FirstFree {
		v.diags = errorf(v.diags, pos, RuleLoopBound,
			"dynamic bound register r%d is a reserved special", l.BoundReg)
	} else if l.BoundReg >= kernel.FirstFree && !v.defI[l.BoundReg] {
		v.diags = errorf(v.diags, pos, RuleLoopBound,
			"dynamic bound register r%d read before any definition", l.BoundReg)
	}
}

// section runs the def-before-use and structural checks over one
// instruction sequence, then the affinity passes with Seq auditing.
// loopBody marks sections that repeat per iteration, where a read may see a
// definition from a later instruction of the previous iteration.
func (v *fragVerifier) section(name string, body []kernel.Instr, loopBody bool) {
	if len(body) == 0 {
		return
	}
	f := v.f

	// Loop-carried definitions: anything defined somewhere in this body is
	// visible to every read of the body from the second iteration on; the
	// first iteration needs an initialization before the body (VF012).
	bodyDefI := map[kernel.Reg]bool{}
	bodyDefF := map[kernel.Reg]bool{}
	if loopBody {
		for _, in := range body {
			if r, flt, ok := in.Def(); ok && r >= 0 {
				if flt {
					bodyDefF[r] = true
				} else {
					bodyDefI[r] = true
				}
			}
		}
	}

	for i, in := range body {
		pos := fpos(f.Name, name, i)
		if in.Op > kernel.IStoreLoc {
			v.diags = errorf(v.diags, pos, RuleBadInstr, "unknown opcode %d", in.Op)
			continue
		}
		us, n := in.Uses()
		for _, u := range us[:n] {
			if u.R < 0 {
				v.diags = errorf(v.diags, pos, RuleBadInstr,
					"%s reads negative register r%d", in, u.R)
				continue
			}
			// v.def holds everything defined before this section plus the
			// section's own definitions so far; bodyDef adds the body's
			// later definitions, which only a repeated body can observe.
			defined, later := v.defI[u.R], bodyDefI[u.R]
			if u.Float {
				defined, later = v.defF[u.R], bodyDefF[u.R]
			}
			switch {
			case defined:
			case later:
				// VF012: a loop-carried read whose first iteration sees a
				// sibling work item's leftovers. The batch specializer's
				// error replay re-runs work items from their start and
				// relies on the carry being re-initialized.
				v.diags = errorf(v.diags, pos, RuleCarriedInit,
					"%s reads loop-carried r%d, which nothing before the %s initializes", in, u.R, name)
			default:
				v.diags = errorf(v.diags, pos, RuleUseBeforeDef,
					"%s reads r%d before any definition", in, u.R)
			}
		}

		switch in.Op {
		case kernel.ILoad, kernel.ILoadValid, kernel.IStore:
			if in.Op == kernel.IStore {
				v.stores[in.Buf] = true
			} else {
				v.loads[in.Buf] = true
			}
			if v.bufs != nil {
				if in.Buf < 0 || in.Buf >= len(v.bufs) {
					v.diags = errorf(v.diags, pos, RuleBufRange,
						"%s references buf %d outside the kernel's %d declarations", in, in.Buf, len(v.bufs))
					break
				}
				decl := v.bufs[in.Buf]
				if in.Op != kernel.ILoadValid && (decl.Kind == vector.Float) != in.Float {
					v.diags = errorf(v.diags, pos, RuleKindMismatch,
						"%s float=%v disagrees with buf %d (%s) declared %s", in, in.Float, in.Buf, decl.Name, decl.Kind)
				}
				if in.Op == kernel.IStore && in.C > 0 && !decl.Valid {
					v.diags = errorf(v.diags, pos, RuleStoreValid,
						"conditional-validity store into buf %d (%s) which has no validity mask", in.Buf, decl.Name)
				}
			}
		case kernel.ILoadLoc, kernel.IStoreLoc:
			if f.Locals <= 0 {
				v.diags = errorf(v.diags, pos, RuleLocals,
					"%s in a fragment with no scratch array (Locals=%d)", in, f.Locals)
			}
		}

		if r, flt, ok := in.Def(); ok {
			if r < kernel.FirstFree {
				v.diags = errorf(v.diags, pos, RuleSpecialWrite,
					"%s writes reserved register r%d", in, r)
			}
			if r >= 0 {
				if flt {
					v.defF[r] = true
				} else {
					v.defI[r] = true
				}
			}
		}
	}

	// Affinity: propagate index classes to a practical fixpoint (loop
	// bodies feed their own next iteration, so run a few extra passes),
	// emitting VF009 on the final pass only.
	passes := 1
	if loopBody {
		passes = 4
	}
	for p := 0; p < passes; p++ {
		final := p == passes-1
		for i, in := range body {
			if final && in.Seq {
				switch in.Op {
				case kernel.ILoad, kernel.ILoadValid, kernel.IStore:
					if v.class(in.A) == affOther {
						v.diags = errorf(v.diags, fpos(f.Name, name, i), RuleSeqClass,
							"%s is marked sequential but its index r%d is not affine in the work-item index", in, in.A)
					}
				}
			}
			v.applyClass(in)
		}
	}
}

// applyClass updates the affinity class of the register in defines, if any.
func (v *fragVerifier) applyClass(in kernel.Instr) {
	r, flt, ok := in.Def()
	if !ok || flt || r < 0 {
		return
	}
	var c affClass
	switch in.Op {
	case kernel.IConstI:
		c = affConst
	case kernel.IMov:
		c = v.class(in.A)
	case kernel.IBin:
		a, b := v.class(in.A), v.class(in.B)
		switch in.BOp {
		case kernel.BAdd, kernel.BSub:
			c = max(a, b)
			if c > affAffine {
				c = affOther
			}
		case kernel.BMul:
			switch {
			case a == affConst && b == affConst:
				c = affConst
			case a == affConst && b == affAffine, a == affAffine && b == affConst:
				c = affAffine
			default:
				c = affOther
			}
		default:
			if a == affConst && b == affConst {
				c = affConst
			} else {
				c = affOther
			}
		}
	default:
		// Selects, loads, casts from float, scratch reads: data-dependent.
		c = affOther
	}
	v.cls[r] = c
}

// ---------------------------------------------------------------------------
// Batch specialization facts

// Reasons a fragment is not batch-eligible (Facts.Reason). They are stable
// metric label values: the executor pre-creates one
// voodoo_fragments_interpreted_total series per entry of Reasons.
const (
	ReasonNoLoops      = "no-loops"          // nothing to batch
	ReasonLoopShape    = "loop-shape"        // several loops with a carried phase, strided runs, or a static bound other than the intent
	ReasonDynamicBound = "dynamic-bound"     // a loop bounded by a register
	ReasonOpcode       = "opcode"            // an instruction outside the vocabulary
	ReasonOperand      = "operand"           // a negative register or buffer, or a write to a special register
	ReasonCarriedGuard = "carried-guard"     // a guard whose condition depends on carried state
	ReasonMixedDef     = "mixed-def"         // a register defined on both the lane and the carried side
	ReasonImportRedef  = "import-redefined"  // a lane register the carried slice reads is defined twice
	ReasonSectionRead  = "section-lane-read" // Pre, Post or the post-loop body reads a lane register it did not define
	ReasonLoadStore    = "load-store"        // a buffer both loaded and stored
	ReasonStoreOverlap = "store-overlap"     // a buffer stored on the lane side is stored by another instruction too
	ReasonCarryInit    = "carry-init"        // a loop-carried register Pre does not initialize (VF012)
)

// Reasons lists every ineligibility reason BatchFacts can report.
var Reasons = []string{
	ReasonNoLoops, ReasonLoopShape, ReasonDynamicBound, ReasonOpcode, ReasonOperand,
	ReasonCarriedGuard, ReasonMixedDef, ReasonImportRedef, ReasonSectionRead,
	ReasonLoadStore, ReasonStoreOverlap, ReasonCarryInit,
}

// Facts are the fragment eligibility facts the executor's batch specializer
// consumes (exec.compileBatch).
//
// A batch runs lanes: one lane per loop iteration, identified by its
// global index idx (RegGID = idx/Intent, RegIV = idx%Intent). When every
// loop runs exactly once per work item with idx == gid (PerItem), a lane
// is a work item and each loop is one primitive sequence over the lanes.
//
// The loop body splits into the lane side and the carried slice. Lane
// instructions depend only on the current lane and run instruction-major
// as batch primitives over register columns. The carried slice — every
// instruction that touches locals, reads a register before the body
// defines it (a loop-carried read), or reads or defines a register another
// carried instruction defines — runs element-major, lane after lane in
// index order, through the interpreter, together with Pre, Post and the
// post-loop body at work-item boundaries. Results therefore stay
// bit-identical to the interpreter's.
type Facts struct {
	// BatchEligible reports whether the fragment can run as a batch.
	BatchEligible bool
	// Reason names the rule that failed, one of Reasons ("" when
	// eligible).
	Reason string
	// Countable marks every memory access sequential, making batch event
	// counts order-independent and therefore exact.
	Countable bool
	// IntRegs/FltRegs list the registers needing a lane column in each
	// file, ascending: the specials RegGID, RegIV and RegIdx plus every
	// register the lane side defines. NRegs bounds both index spaces.
	IntRegs []kernel.Reg
	FltRegs []kernel.Reg
	NRegs   int
	// PerItem reports that lanes are work items (every loop runs once
	// with idx == gid). Otherwise the fragment has one blocked loop of
	// Intent iterations.
	PerItem bool
	// Split reports a carried phase: Pre, Post, a post-loop body, locals
	// or carried instructions. Only single-loop fragments split.
	Split bool
	// Carried lists the body positions of the carried slice in order, and
	// Level the number of lane guards before each: a lane that passed g
	// guards runs the carried instructions of level <= g. LaneGuards is
	// the number of guards on the lane side.
	Carried    []int
	Level      []int
	LaneGuards int
	// ImportI/ImportF list the lane registers the carried slice reads,
	// copied from the lane columns into the scalar register file before
	// each lane's carried instructions run.
	ImportI []kernel.Reg
	ImportF []kernel.Reg
}

// ineligible builds the not-eligible result.
func ineligible(reason string) Facts { return Facts{Reason: reason} }

// Per-register flags of the split analysis, one entry per register and
// file (index 2*r, plus 1 for the float file).
const (
	rSeen       uint16 = 1 << iota // defined earlier in the body
	rCarried                       // lives in the carried slice
	rCarryRead                     // read before the body defines it
	rLaneDef                       // defined on the lane side
	rLaneTwice                     // defined on the lane side more than once
	rCarriedDef                    // defined by a carried instruction
	rPreDef                        // defined by Pre before any guard
	rImport                        // read by the carried slice from a lane column
	rSectionDef                    // defined earlier in the section being scanned
)

// Per-buffer flags.
const (
	bLoad uint8 = 1 << iota
	bStore
	bLaneStore
	bStoreTwice
)

// BatchFacts computes the batch-specialization eligibility facts for one
// fragment. It runs on every plan-cache miss, so it makes one forward pass
// over dense per-register slices and allocates only its result. The rules
// are conservative: a rejected fragment simply interprets.
func BatchFacts(f *kernel.Fragment) Facts {
	if len(f.Loops) == 0 {
		return ineligible(ReasonNoLoops)
	}
	perItem := f.Intent == 1 || f.Strided
	for _, l := range f.Loops {
		if l.BoundReg > 0 {
			return ineligible(ReasonDynamicBound)
		}
		if l.Bound != 1 && (l.Bound > 0 || f.Intent != 1) {
			perItem = false
		}
	}
	if !perItem {
		// A lane is one iteration of the single blocked loop, which must
		// run exactly Intent times per work item.
		l := f.Loops[0]
		if len(f.Loops) != 1 || f.Strided || f.Intent < 0 || (l.Bound > 0 && l.Bound != f.Intent) {
			return ineligible(ReasonLoopShape)
		}
	}
	fa := Facts{PerItem: perItem,
		Split: f.Locals != 0 || len(f.Pre) != 0 || len(f.Post) != 0 || len(f.PostLoopBody) != 0}

	// Size the dense tables and reject malformed operands up front.
	nregs, nbufs := int(kernel.FirstFree), 0
	reason := ""
	scan := func(instrs []kernel.Instr) {
		for _, in := range instrs {
			if in.Op > kernel.IStoreLoc {
				reason = ReasonOpcode
				return
			}
			us, n := in.Uses()
			for _, u := range us[:n] {
				if u.R < 0 {
					reason = ReasonOperand
				}
				nregs = max(nregs, int(u.R)+1)
			}
			if r, _, ok := in.Def(); ok {
				if r < kernel.FirstFree {
					reason = ReasonOperand
				}
				nregs = max(nregs, int(r)+1)
			}
			switch in.Op {
			case kernel.ILoad, kernel.ILoadValid, kernel.IStore:
				if in.Buf < 0 {
					reason = ReasonOperand
				}
				nbufs = max(nbufs, in.Buf+1)
			}
		}
	}
	scan(f.Pre)
	for _, l := range f.Loops {
		scan(l.Body)
	}
	scan(f.Post)
	scan(f.PostLoopBody)
	if reason != "" {
		return ineligible(reason)
	}
	regs := make([]uint16, 2*nregs)
	bufs := make([]uint8, nbufs)
	key := func(r kernel.Reg, flt bool) int {
		if flt {
			return 2*int(r) + 1
		}
		return 2 * int(r)
	}
	// laneSpecial reports the registers every lane defines for itself.
	laneSpecial := func(u kernel.RegUse) bool {
		return !u.Float && (u.R == kernel.RegGID || u.R == kernel.RegIV || u.R == kernel.RegIdx)
	}
	countable := true
	access := func(in kernel.Instr, lane bool) {
		switch in.Op {
		case kernel.ILoad, kernel.ILoadValid:
			bufs[in.Buf] |= bLoad
		case kernel.IStore:
			if bufs[in.Buf]&bStore != 0 {
				bufs[in.Buf] |= bStoreTwice
			}
			bufs[in.Buf] |= bStore
			if lane {
				bufs[in.Buf] |= bLaneStore
			}
		default:
			return
		}
		if !in.Seq {
			countable = false
		}
	}

	// Pre initializes the carried registers (definitions after a guard
	// are conditional and do not count).
	guarded := false
	for _, in := range f.Pre {
		guarded = guarded || in.Op == kernel.IGuard
		if r, flt, ok := in.Def(); ok && !guarded {
			regs[key(r, flt)] |= rPreDef
		}
		access(in, false)
	}

	// Classify the loop bodies in one forward pass each.
	for _, l := range f.Loops {
		for k := range regs {
			regs[k] &^= rSeen
		}
		for i, in := range l.Body {
			c := in.Op == kernel.ILoadLoc || in.Op == kernel.IStoreLoc
			us, n := in.Uses()
			for _, u := range us[:n] {
				if laneSpecial(u) {
					continue
				}
				k := key(u.R, u.Float)
				if regs[k]&rSeen == 0 {
					regs[k] |= rCarried | rCarryRead
				}
				c = c || regs[k]&rCarried != 0
			}
			r, flt, def := in.Def()
			c = c || (def && regs[key(r, flt)]&rCarried != 0)
			access(in, !c)
			switch {
			case c && in.Op == kernel.IGuard:
				return ineligible(ReasonCarriedGuard)
			case c:
				fa.Carried = append(fa.Carried, i)
				fa.Level = append(fa.Level, fa.LaneGuards)
			case in.Op == kernel.IGuard:
				fa.LaneGuards++
			}
			if def {
				k := key(r, flt)
				switch {
				case c:
					regs[k] |= rCarried | rCarriedDef
				case regs[k]&rLaneDef != 0:
					regs[k] |= rLaneTwice
				default:
					regs[k] |= rLaneDef
				}
				regs[k] |= rSeen
			}
		}
	}
	if len(fa.Carried) > 0 {
		fa.Split = true
	}
	if fa.Split && len(f.Loops) != 1 {
		return ineligible(ReasonLoopShape)
	}

	// The carried slice imports the lane registers it reads; each must
	// hold a single value per lane.
	for _, i := range fa.Carried {
		us, n := f.Loops[0].Body[i].Uses()
		for _, u := range us[:n] {
			k := key(u.R, u.Float)
			if laneSpecial(u) || regs[k]&rLaneDef == 0 || regs[k]&rImport != 0 {
				continue
			}
			if regs[k]&rLaneTwice != 0 {
				return ineligible(ReasonImportRedef)
			}
			regs[k] |= rImport
			if u.Float {
				fa.ImportF = append(fa.ImportF, u.R)
			} else {
				fa.ImportI = append(fa.ImportI, u.R)
			}
		}
	}
	for _, fl := range regs {
		if fl&rLaneDef != 0 && fl&rCarriedDef != 0 {
			return ineligible(ReasonMixedDef)
		}
		if fl&rCarryRead != 0 && fl&rPreDef == 0 {
			return ineligible(ReasonCarryInit)
		}
	}

	// Pre, Post and the post-loop body run in the carried phase, where the
	// scalar register file holds no lane values: each may read a lane
	// register only after defining it itself (Post and the post-loop body
	// count as one section, in execution order).
	sectionRead := func(secs ...[]kernel.Instr) bool {
		for k := range regs {
			regs[k] &^= rSectionDef
		}
		for _, sec := range secs {
			for _, in := range sec {
				us, n := in.Uses()
				for _, u := range us[:n] {
					k := key(u.R, u.Float)
					if (!u.Float && (u.R == kernel.RegIV || u.R == kernel.RegIdx)) ||
						regs[k]&(rLaneDef|rSectionDef) == rLaneDef {
						return true
					}
				}
				if r, flt, ok := in.Def(); ok {
					regs[key(r, flt)] |= rSectionDef
				}
			}
		}
		return false
	}
	if sectionRead(f.Pre) || sectionRead(f.Post, f.PostLoopBody) {
		return ineligible(ReasonSectionRead)
	}
	for _, sec := range [2][]kernel.Instr{f.Post, f.PostLoopBody} {
		for _, in := range sec {
			access(in, false)
		}
	}
	for _, b := range bufs {
		if b&bLoad != 0 && b&bStore != 0 {
			return ineligible(ReasonLoadStore)
		}
		if b&bLaneStore != 0 && b&bStoreTwice != 0 {
			return ineligible(ReasonStoreOverlap)
		}
	}

	fa.BatchEligible, fa.Countable = true, countable
	fa.IntRegs = []kernel.Reg{kernel.RegGID, kernel.RegIV, kernel.RegIdx}
	fa.NRegs = int(kernel.RegIdx) + 1
	for r := kernel.FirstFree; int(r) < nregs; r++ {
		if regs[key(r, false)]&rLaneDef != 0 {
			fa.IntRegs = append(fa.IntRegs, r)
			fa.NRegs = int(r) + 1
		}
		if regs[key(r, true)]&rLaneDef != 0 {
			fa.FltRegs = append(fa.FltRegs, r)
			fa.NRegs = int(r) + 1
		}
	}
	return fa
}
