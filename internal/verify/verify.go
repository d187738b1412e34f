// Package verify is the static verification layer of the Voodoo stack: a
// three-level IR verifier in the style of compiler IR verifiers.
//
//   - Algebra level (Program): well-formedness of core programs — operator
//     arity, dangling references, and a full shape/schema derivation that
//     mirrors the interpreter's Table 2 semantics (attribute sets, lengths,
//     scalar kinds, control-vector validity). Error-level diagnostics are
//     sound: a program carrying one is guaranteed to be rejected by the
//     reference interpreter, which is what lets difftest use the verifier
//     as its front line.
//   - Plan level (package compile's (*Plan).Verify): post-lowering checks
//     on compiled plans — step inputs resolved, schema consistency across
//     fragment boundaries, virtual-scatter resolution, zone-map pruned-step
//     output validity.
//   - Fragment level (Fragment/Kernel): register def-before-use, buffer
//     kind consistency, loop-bound sanity, and sequential-vs-random access
//     classification. The same pass computes Facts — the single source of
//     truth the executor's batch specializer consumes for eligibility.
//
// Verification runs unconditionally in compile/interp test builds (their
// TestMain calls SetEnabled) and behind -verify on the daemons.
package verify

import (
	"fmt"
	"sync/atomic"

	"voodoo/internal/metrics"
)

// Level classifies a diagnostic.
type Level int

const (
	// Error marks a contract violation. At the algebra level an Error is
	// sound: the reference interpreter is guaranteed to reject the
	// program. At the plan and fragment levels an Error means the
	// compiler emitted something that violates the executor's contract.
	Error Level = iota
	// Warn marks a suspicious construct that does not certainly fail.
	Warn
)

// String implements fmt.Stringer.
func (l Level) String() string {
	if l == Error {
		return "error"
	}
	return "warn"
}

// Pos locates a diagnostic inside the verified artifact. Exactly one of
// the location families is populated: Stmt >= 0 for algebra-level
// diagnostics, Frag != "" for fragment-level ones (Section/Index narrow to
// one instruction), Step != "" for plan-level ones.
type Pos struct {
	Stmt    int    // SSA statement id, -1 when not statement-scoped
	Step    string // plan step name ("" when not step-scoped)
	Frag    string // fragment name ("" when not fragment-scoped)
	Section string // "pre", "loop0", "loop1", ..., "post", "postloop"
	Index   int    // instruction index within Section, -1 when whole-section
}

// NoPos is the zero location for artifact-wide diagnostics.
var NoPos = Pos{Stmt: -1, Index: -1}

// StmtPos locates statement id.
func StmtPos(id int) Pos { return Pos{Stmt: id, Index: -1} }

// String renders the position compactly ("stmt 3", "frag sel_2/loop0[4]").
func (p Pos) String() string {
	switch {
	case p.Stmt >= 0:
		return fmt.Sprintf("stmt %d", p.Stmt)
	case p.Frag != "" && p.Section != "" && p.Index >= 0:
		return fmt.Sprintf("frag %s/%s[%d]", p.Frag, p.Section, p.Index)
	case p.Frag != "" && p.Section != "":
		return fmt.Sprintf("frag %s/%s", p.Frag, p.Section)
	case p.Frag != "":
		return "frag " + p.Frag
	case p.Step != "":
		return "step " + p.Step
	}
	return "program"
}

// Diagnostic is one verification finding: a rule identifier (see the
// catalogue in DESIGN.md §16), a position inside the verified artifact,
// and a human-readable message.
type Diagnostic struct {
	Level Level
	Pos   Pos
	Rule  string
	Msg   string
}

// String implements fmt.Stringer.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s: %s", d.Level, d.Rule, d.Pos, d.Msg)
}

// Rule identifiers. Stable: tests pin mutations to rule ids and DESIGN.md
// §16 catalogues them.
const (
	// Algebra level.
	RuleUnknownOp   = "VA001" // operator not in the Table 2 vocabulary
	RuleArity       = "VA002" // wrong number of vector arguments
	RuleDanglingRef = "VA003" // argument ref out of range or not an earlier stmt
	RuleRangeSize   = "VA004" // Range literal size must be positive
	RuleMissingName = "VA005" // Load/Persist without a storage name
	RuleOutCount    = "VA006" // wrong number of output attribute names
	RuleKpCount     = "VA007" // fewer keypaths than consumed operands
	RuleUnknownAttr = "VA008" // keypath resolves to no attribute
	RuleSingleAttr  = "VA009" // empty keypath on a multi-attribute operand
	RuleIntOpFloat  = "VA010" // integer-only operator applied to float operands
	RuleUpsertLen   = "VA011" // Upsert attribute length mismatch
	RuleScatterLen  = "VA012" // fewer Scatter positions than values
	RuleMissingVec  = "VA013" // Load of a vector absent from storage
	RuleFloatIndex  = "VA014" // float-kind column used where integers are read
	RuleFoldValue   = "VA015" // fold value attribute unresolvable

	// Fragment level.
	RuleUseBeforeDef = "VF001" // register read before any definition
	RuleSpecialWrite = "VF002" // instruction writes a reserved register
	RuleBufRange     = "VF003" // buffer index outside the kernel declarations
	RuleKindMismatch = "VF004" // load/store float flag disagrees with the declaration
	RuleStoreValid   = "VF005" // conditional-validity store into a maskless buffer
	RuleLocals       = "VF006" // scratch access in a fragment without locals
	RuleLoopBound    = "VF007" // negative bound or invalid bound register
	RuleGeometry     = "VF008" // negative extent/intent or N beyond the index space
	RuleSeqClass     = "VF009" // sequential access through a non-affine index
	RuleRWOverlap    = "VF010" // fragment loads and stores the same buffer
	RuleBadInstr     = "VF011" // unknown opcode or negative operand register
	RuleCarriedInit  = "VF012" // loop-carried register not defined before its loop

	// Kernel level.
	RuleBufDecl = "VK001" // buffer declaration with negative size or empty name

	// Plan level (reported by (*compile.Plan).Verify).
	RuleInputUnbound  = "VP001" // input buffer read before it is bound or produced
	RulePlanBufRange  = "VP002" // plan step references a buffer outside the kernel
	RulePlanSchema    = "VP003" // bulk step attribute/buffer arity mismatch
	RulePrunedOutput  = "VP004" // pruned-step output buffer cannot represent ε
	RuleVirtualStore  = "VP005" // virtual (dissolved-scatter) fragment stores randomly
	RuleScatterSeq    = "VP006" // real scatter fragment without a random store
	RuleUseBeforeProd = "VP007" // buffer read before any producing step
)

// HasErrors reports whether any diagnostic is Error-level.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Level == Error {
			return true
		}
	}
	return false
}

// enabled gates verification in the compile and interp hot paths: tests
// switch it on in TestMain, daemons behind their -verify flag.
var enabled atomic.Bool

// SetEnabled switches verification in the compile/interp paths on or off
// and returns the previous setting.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// Enabled reports whether verification is switched on.
func Enabled() bool { return enabled.Load() }

// FailuresTotal counts verification failures observed on enforcement
// paths (compile-time plan verification and the interpreter cross-check).
// Exported to /metrics as voodoo_verify_failures_total.
var FailuresTotal = metrics.NewCounter("voodoo_verify_failures_total",
	"Verification failures detected on -verify enforcement paths (plan verification and interpreter cross-checks).")

// errorf appends an Error diagnostic.
func errorf(diags []Diagnostic, pos Pos, rule, format string, args ...any) []Diagnostic {
	return append(diags, Diagnostic{Level: Error, Pos: pos, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// warnf appends a Warn diagnostic.
func warnf(diags []Diagnostic, pos Pos, rule, format string, args ...any) []Diagnostic {
	return append(diags, Diagnostic{Level: Warn, Pos: pos, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}
