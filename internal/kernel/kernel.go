// Package kernel defines the kernel intermediate representation that the
// Voodoo compiler (package compile) lowers programs into.
//
// A Kernel is a sequence of Fragments (paper §3.1): fully inlined,
// function-call-free loop nests, each with an Extent (degree of data
// parallelism; the OpenCL global work size) and an Intent (sequential
// iterations per parallel work item). Materialization happens only at the
// seams between fragments — the paper's global barriers.
//
// Three consumers share this IR:
//
//   - package exec runs fragments natively (work items = goroutine chunks);
//   - package device runs them under an instrumented interpreter that
//     charges a parametric hardware cost model (CPU or GPU presets);
//   - package opencl pretty-prints them as the OpenCL C the paper's
//     backend would ship to the driver.
package kernel

import (
	"fmt"
	"strings"
	"sync/atomic"

	"voodoo/internal/vector"
)

// Reg is a virtual register index. Registers are work-item local and typed
// statically by the compiler (int64 or float64).
type Reg int32

// Special registers available in fragment bodies.
const (
	// RegGID holds the parallel work-item id (0 ≤ gid < Extent).
	RegGID Reg = 0
	// RegIV holds the loop iteration variable of the current loop.
	RegIV Reg = 1
	// RegIdx holds the global element index derived from (gid, iv):
	// gid*Intent+iv for blocked fragments, iv*Extent+gid for strided.
	RegIdx Reg = 2
	// RegJ holds the post-loop index (0 ≤ j < Locals).
	RegJ Reg = 3
	// FirstFree is the first register available for allocation.
	FirstFree Reg = 4
)

// NoReg marks an absent optional register operand.
const NoReg Reg = -1

// BinOp enumerates binary ALU operations.
type BinOp uint8

const (
	BAdd BinOp = iota
	BSub
	BMul
	BDiv
	BMod
	BShl
	BAnd
	BOr
	BGt
	BGe
	BEq
	BMin
	BMax
)

var binNames = [...]string{"add", "sub", "mul", "div", "mod", "shl", "and", "or", "gt", "ge", "eq", "min", "max"}

// String returns the mnemonic of the operation.
func (b BinOp) String() string {
	if int(b) < len(binNames) {
		return binNames[b]
	}
	return fmt.Sprintf("bin(%d)", uint8(b))
}

// IOp enumerates instruction opcodes.
type IOp uint8

const (
	// IConstI: Dst ← Imm (integer).
	IConstI IOp = iota
	// IConstF: Dst ← FImm (float).
	IConstF
	// IMov: Dst ← A.
	IMov
	// IBin: Dst ← A ⟨BOp⟩ B; Float selects the ALU domain.
	IBin
	// ISel: Dst ← A != 0 ? B : C. Branch-free (predication).
	ISel
	// ILoad: Dst ← Buf[A]. Seq marks an affine (coalesced) access.
	ILoad
	// ILoadValid: Dst ← 1 if Buf[A] holds a value, else 0.
	ILoadValid
	// IStore: Buf[A] ← B (marks the slot valid). Seq as for ILoad.
	IStore
	// IGuard: if A == 0, skip the remainder of the loop body for this
	// iteration. This is the data-dependent branch of a "branching"
	// implementation; its cost is what predication trades away.
	IGuard
	// ICastIF: Dst ← float64(A).
	ICastIF
	// ICastFI: Dst ← int64(A) (truncating).
	ICastFI
	// ILoadLoc: Dst ← locals[A] (per-work-item scratch array).
	ILoadLoc
	// IStoreLoc: locals[A] ← B.
	IStoreLoc
)

// Instr is one three-address instruction.
type Instr struct {
	Op    IOp
	BOp   BinOp
	Float bool // IBin/ISel/ILoad/IStore operate on floats
	Dst   Reg
	A, B  Reg
	C     Reg // ISel only
	Buf   int
	Imm   int64
	FImm  float64
	// Seq marks memory accesses whose index is affine in RegIdx
	// (coalesced / prefetchable); non-Seq accesses are random (gathers
	// and scatters), which the device cost models price by working-set
	// size.
	Seq bool
}

// Loop is one sequential loop inside a fragment, executed per work item.
// The iteration count is min(Bound, value of BoundReg) where Bound == 0
// means the fragment's Intent and BoundReg <= 0 means "no dynamic bound"
// (dynamic bound registers therefore must be allocated at or above
// FirstFree, which the compiler's register allocator guarantees). Dynamic
// bounds implement the paper's empty-slot suppression: a fold-select
// records how many positions each run produced, and downstream loops
// iterate only those.
type Loop struct {
	Bound    int
	BoundReg Reg
	Body     []Instr
}

// Prov records why the compiler emitted a fragment: which SSA statements
// fused into it and which of the paper's fusion decisions shaped it. It is
// metadata for EXPLAIN and execution traces; execution ignores it.
type Prov struct {
	// Kind classifies the fragment: "fold", "scan", "filter-fold",
	// "reduce", "select", "filter", "mat", "scatter", "group-fold",
	// "group-reduce".
	Kind string
	// Stmts lists the SSA ids of the statements this fragment computes;
	// more than one means operators were fused.
	Stmts []int
	// Suppressed marks empty-slot suppression (§3.1.2): the output holds
	// one slot per run instead of one per element.
	Suppressed bool
	// Virtual marks a fragment that dissolved a scatter into index
	// arithmetic (§3.1.3) instead of moving data.
	Virtual bool
	// Predicated marks selection lowered as cursor arithmetic instead of
	// a data-dependent branch.
	Predicated bool
}

// Fragment is one generated kernel: Extent parallel work items each running
// the loop nest sequentially. N guards the global element index (the last
// work item may be ragged).
type Fragment struct {
	Name    string
	Extent  int
	Intent  int
	Strided bool // idx = iv*Extent + gid instead of gid*Intent + iv
	N       int  // iterations with idx >= N are skipped

	// Prov is compiler provenance for EXPLAIN and tracing.
	Prov Prov

	// Locals is the size of the per-work-item scratch array (0 = none);
	// LocalsFloat selects its type. Scratch arrays hold chunk-local
	// position lists (vectorized processing) and grouped-aggregation
	// accumulators (the paper's virtual scatter, §3.1.3).
	Locals      int
	LocalsFloat bool
	// LocalsInit is the value scratch slots start with (e.g. the
	// identity of a fold, or a "no value" sentinel).
	LocalsInit float64

	Pre   []Instr // once per work item, before the loops
	Loops []Loop
	Post  []Instr // once per work item, after the loops
	// PostLoopBody runs Locals times per work item with RegJ = 0..Locals-1,
	// flushing scratch arrays to global buffers.
	PostLoopBody []Instr

	// spec caches the executor's compiled specialization of this fragment
	// (opaque here; package exec owns the concrete type). Fragments are
	// immutable after compilation, so racing compilations store identical
	// content and the last store winning is benign.
	spec atomic.Value
}

// LoadSpec returns the cached specialization, or nil before the first
// StoreSpec. Safe for concurrent use.
func (f *Fragment) LoadSpec() any { return f.spec.Load() }

// StoreSpec caches a compiled specialization on the fragment. Safe for
// concurrent use; later stores overwrite earlier ones.
func (f *Fragment) StoreSpec(v any) { f.spec.Store(v) }

// Sequential reports whether the fragment runs on a single work item.
func (f *Fragment) Sequential() bool { return f.Extent <= 1 }

// StaticBodyOps counts the ALU instructions one full loop iteration
// executes (all loops combined), split by domain. SIMT cost models charge
// guard-divergent fragments the full body per iteration regardless of the
// guard outcome.
func (f *Fragment) StaticBodyOps() (intOps, floatOps int64) {
	for _, l := range f.Loops {
		for _, in := range l.Body {
			switch in.Op {
			case IBin, ISel:
				if in.Float {
					floatOps++
				} else {
					intOps++
				}
			case ICastIF, ICastFI:
				intOps++
			}
		}
	}
	return
}

// BufDecl declares one global buffer of a kernel.
type BufDecl struct {
	Name  string
	Kind  vector.Kind
	Size  int
	Valid bool // carries a validity (ε) mask
	Input bool // bound by the caller before execution
}

// Kernel is a compiled Voodoo program: buffers plus a fragment sequence
// with an implicit global barrier between consecutive fragments.
type Kernel struct {
	Bufs  []BufDecl
	Frags []*Fragment
}

// AddBuf appends a buffer declaration and returns its index.
func (k *Kernel) AddBuf(d BufDecl) int {
	k.Bufs = append(k.Bufs, d)
	return len(k.Bufs) - 1
}

// String renders a compact human-readable listing of the kernel.
func (k *Kernel) String() string {
	var sb strings.Builder
	for i, b := range k.Bufs {
		role := "temp"
		if b.Input {
			role = "input"
		}
		fmt.Fprintf(&sb, "buf %d %s %s[%d] (%s)\n", i, b.Name, b.Kind, b.Size, role)
	}
	for _, f := range k.Frags {
		mode := "blocked"
		if f.Strided {
			mode = "strided"
		}
		fmt.Fprintf(&sb, "fragment %s extent=%d intent=%d n=%d %s locals=%d\n",
			f.Name, f.Extent, f.Intent, f.N, mode, f.Locals)
		writeInstrs(&sb, "  pre ", f.Pre)
		for li, l := range f.Loops {
			bound := "intent"
			if l.Bound > 0 {
				bound = fmt.Sprintf("%d", l.Bound)
			}
			if l.BoundReg > 0 {
				bound += fmt.Sprintf(" min r%d", l.BoundReg)
			}
			fmt.Fprintf(&sb, "  loop%d bound=%s\n", li, bound)
			writeInstrs(&sb, "    ", l.Body)
		}
		writeInstrs(&sb, "  post ", f.Post)
		writeInstrs(&sb, "  postloop ", f.PostLoopBody)
	}
	return sb.String()
}

func writeInstrs(sb *strings.Builder, indent string, instrs []Instr) {
	for _, in := range instrs {
		fmt.Fprintf(sb, "%s%s\n", indent, in)
	}
}

// String renders one instruction.
func (in Instr) String() string {
	f := ""
	if in.Float {
		f = "f"
	}
	switch in.Op {
	case IConstI:
		return fmt.Sprintf("r%d = %d", in.Dst, in.Imm)
	case IConstF:
		return fmt.Sprintf("r%d = %g", in.Dst, in.FImm)
	case IMov:
		return fmt.Sprintf("r%d = r%d", in.Dst, in.A)
	case IBin:
		return fmt.Sprintf("r%d = %s%s r%d r%d", in.Dst, f, in.BOp, in.A, in.B)
	case ISel:
		return fmt.Sprintf("r%d = r%d ? r%d : r%d", in.Dst, in.A, in.B, in.C)
	case ILoad:
		return fmt.Sprintf("r%d = %sload buf%d[r%d] seq=%v", in.Dst, f, in.Buf, in.A, in.Seq)
	case ILoadValid:
		return fmt.Sprintf("r%d = valid buf%d[r%d]", in.Dst, in.Buf, in.A)
	case IStore:
		return fmt.Sprintf("%sstore buf%d[r%d] = r%d seq=%v", f, in.Buf, in.A, in.B, in.Seq)
	case IGuard:
		return fmt.Sprintf("guard r%d", in.A)
	case ICastIF:
		return fmt.Sprintf("r%d = float(r%d)", in.Dst, in.A)
	case ICastFI:
		return fmt.Sprintf("r%d = int(r%d)", in.Dst, in.A)
	case ILoadLoc:
		return fmt.Sprintf("r%d = loc[r%d]", in.Dst, in.A)
	case IStoreLoc:
		return fmt.Sprintf("loc[r%d] = r%d", in.A, in.B)
	}
	return fmt.Sprintf("instr(%d)", in.Op)
}

// RegUse is one register operand an instruction reads, with the register
// file it reads from (Float selects the float file).
type RegUse struct {
	R     Reg
	Float bool
}

// Uses returns the registers the instruction reads, with their domains:
// the first n entries of u. Guard conditions, load indices and select
// conditions always read the integer file; value operands follow the
// instruction's Float flag. The result is a value, so analyses that walk
// every instruction of a fragment (the verifier, the batch eligibility
// facts computed on each plan-cache miss) do not allocate.
func (in Instr) Uses() (u [3]RegUse, n int) {
	switch in.Op {
	case IMov:
		u[0] = RegUse{in.A, in.Float}
		return u, 1
	case IBin:
		u[0], u[1] = RegUse{in.A, in.Float}, RegUse{in.B, in.Float}
		return u, 2
	case ISel:
		u[0], u[1], u[2] = RegUse{in.A, false}, RegUse{in.B, in.Float}, RegUse{in.C, in.Float}
		return u, 3
	case ILoad, ILoadValid, IGuard, ICastIF, ILoadLoc:
		u[0] = RegUse{in.A, false}
		return u, 1
	case ICastFI:
		u[0] = RegUse{in.A, true}
		return u, 1
	case IStore, IStoreLoc:
		u[0], u[1] = RegUse{in.A, false}, RegUse{in.B, in.Float}
		if in.Op == IStore && in.C > 0 {
			u[2] = RegUse{in.C, false}
			return u, 3
		}
		return u, 2
	}
	return u, 0
}

// Def returns the register the instruction writes and its domain, or
// ok=false for instructions with no register result (stores, guards).
func (in Instr) Def() (r Reg, float bool, ok bool) {
	switch in.Op {
	case IConstI:
		return in.Dst, false, true
	case IConstF:
		return in.Dst, true, true
	case IMov, IBin, ISel, ILoad, ILoadLoc:
		return in.Dst, in.Float, true
	case ILoadValid, ICastFI:
		return in.Dst, false, true
	case ICastIF:
		return in.Dst, true, true
	}
	return NoReg, false, false
}

// opMnemos are the compact opcode names Fingerprint uses.
var opMnemos = [...]string{"ci", "cf", "mov", "bin", "sel", "ld", "ldv", "st", "grd", "i2f", "f2i", "ldl", "stl"}

// Fingerprint returns a compact structural signature of the fragment's
// instruction shape — opcode mnemonics per section, binops spelled out,
// sequential accesses marked — for fast-path diagnostics and tests. Two
// fragments with equal fingerprints have the same instruction skeleton
// (registers and buffer bindings may differ).
func (f *Fragment) Fingerprint() string {
	var sb strings.Builder
	section := func(tag string, instrs []Instr) {
		if len(instrs) == 0 {
			return
		}
		sb.WriteString(tag)
		sb.WriteByte(':')
		for i, in := range instrs {
			if i > 0 {
				sb.WriteByte(',')
			}
			if int(in.Op) < len(opMnemos) {
				sb.WriteString(opMnemos[in.Op])
			} else {
				fmt.Fprintf(&sb, "op%d", in.Op)
			}
			if in.Op == IBin {
				sb.WriteByte('.')
				sb.WriteString(in.BOp.String())
			}
			if (in.Op == ILoad || in.Op == IStore) && in.Seq {
				sb.WriteString(".s")
			}
			if in.Float {
				sb.WriteString(".f")
			}
		}
		sb.WriteByte(';')
	}
	section("pre", f.Pre)
	for _, l := range f.Loops {
		section("loop", l.Body)
	}
	section("post", f.Post)
	section("postloop", f.PostLoopBody)
	return sb.String()
}
