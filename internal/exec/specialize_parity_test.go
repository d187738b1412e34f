package exec_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/difftest"
	"voodoo/internal/exec"
	"voodoo/internal/kernel"
	"voodoo/internal/vector"
	"voodoo/internal/verify"
)

// legacyBatchEligibility is a copy of the eligibility analysis compileBatch
// performed before the duplicated logic was deleted in favor of
// verify.BatchFacts (only adapted to the value-returning Instr.Uses). It
// pins that every fragment the specializer historically batched still
// batches, with the same facts.
func legacyBatchEligibility(f *kernel.Fragment) (eligible, countable bool, intRegs, fltRegs []kernel.Reg, nregs int) {
	if f.Locals != 0 || len(f.Pre) != 0 || len(f.Post) != 0 || len(f.PostLoopBody) != 0 {
		return false, false, nil, nil, 0
	}
	if len(f.Loops) == 0 {
		return false, false, nil, nil, 0
	}
	if f.Intent != 1 && !f.Strided {
		return false, false, nil, nil, 0
	}
	for _, l := range f.Loops {
		if l.BoundReg > 0 {
			return false, false, nil, nil, 0
		}
		bound := l.Bound
		if bound <= 0 {
			bound = f.Intent
		}
		if bound != 1 {
			return false, false, nil, nil, 0
		}
	}
	countable = true
	usedI := map[kernel.Reg]bool{kernel.RegGID: true, kernel.RegIV: true, kernel.RegIdx: true}
	usedF := map[kernel.Reg]bool{}
	loaded := map[int]bool{}
	stored := map[int]bool{}
	for _, l := range f.Loops {
		defI := map[kernel.Reg]bool{kernel.RegGID: true, kernel.RegIV: true, kernel.RegIdx: true}
		defF := map[kernel.Reg]bool{}
		for _, in := range l.Body {
			switch in.Op {
			case kernel.IConstI, kernel.IConstF, kernel.IMov, kernel.IBin, kernel.ISel,
				kernel.ILoad, kernel.ILoadValid, kernel.IStore, kernel.IGuard,
				kernel.ICastIF, kernel.ICastFI:
			default:
				return false, false, nil, nil, 0
			}
			us, n := in.Uses()
			for _, u := range us[:n] {
				if u.R < 0 {
					return false, false, nil, nil, 0
				}
				if u.Float {
					if !defF[u.R] {
						return false, false, nil, nil, 0
					}
				} else if !defI[u.R] {
					return false, false, nil, nil, 0
				}
			}
			switch in.Op {
			case kernel.ILoad, kernel.ILoadValid:
				if stored[in.Buf] {
					return false, false, nil, nil, 0
				}
				loaded[in.Buf] = true
				if !in.Seq {
					countable = false
				}
			case kernel.IStore:
				if stored[in.Buf] || loaded[in.Buf] {
					return false, false, nil, nil, 0
				}
				stored[in.Buf] = true
				if !in.Seq {
					countable = false
				}
			}
			if r, flt, ok := in.Def(); ok {
				if r < kernel.FirstFree {
					return false, false, nil, nil, 0
				}
				if flt {
					defF[r], usedF[r] = true, true
				} else {
					defI[r], usedI[r] = true, true
				}
			}
		}
	}
	for r := range usedI {
		intRegs = append(intRegs, r)
		if int(r)+1 > nregs {
			nregs = int(r) + 1
		}
	}
	for r := range usedF {
		fltRegs = append(fltRegs, r)
		if int(r)+1 > nregs {
			nregs = int(r) + 1
		}
	}
	sort.Slice(intRegs, func(i, j int) bool { return intRegs[i] < intRegs[j] })
	sort.Slice(fltRegs, func(i, j int) bool { return fltRegs[i] < fltRegs[j] })
	return true, countable, intRegs, fltRegs, nregs
}

func regsEqual(a, b []kernel.Reg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchFactsMatchLegacyEligibility sweeps the difftest corpus through
// the compiler under the fragment-shaping option combos and asserts
// verify.BatchFacts is a superset of the legacy eligibility decision: every
// fragment the legacy analysis accepted is still eligible, without a
// carried phase, and with the same register and countability facts.
func TestBatchFactsMatchLegacyEligibility(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 50
	}
	opts := []compile.Options{{}, {Predication: true}}
	frags, eligibleFrags, widened := 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		p := difftest.Generate(seed)
		for _, opt := range opts {
			plan, err := compile.Compile(p.Prog, p.St, opt)
			if err != nil {
				continue
			}
			for _, f := range plan.Kernel().Frags {
				frags++
				facts := verify.BatchFacts(f)
				eligible, countable, intRegs, fltRegs, nregs := legacyBatchEligibility(f)
				if !eligible {
					if facts.BatchEligible {
						widened++
					}
					continue
				}
				eligibleFrags++
				if !facts.BatchEligible || facts.Split {
					t.Fatalf("seed %d frag %s: legacy-eligible fragment lost eligibility (eligible %v, split %v, reason %q)\n%s",
						seed, f.Name, facts.BatchEligible, facts.Split, facts.Reason, f.Fingerprint())
				}
				if facts.Countable != countable {
					t.Fatalf("seed %d frag %s: countable %v, legacy says %v", seed, f.Name, facts.Countable, countable)
				}
				if !regsEqual(facts.IntRegs, intRegs) || !regsEqual(facts.FltRegs, fltRegs) || facts.NRegs != nregs {
					t.Fatalf("seed %d frag %s: regs int=%v flt=%v n=%d, legacy int=%v flt=%v n=%d",
						seed, f.Name, facts.IntRegs, facts.FltRegs, facts.NRegs, intRegs, fltRegs, nregs)
				}
			}
		}
	}
	if frags < 100 || eligibleFrags == 0 {
		t.Fatalf("corpus too thin to pin eligibility: %d fragments, %d eligible", frags, eligibleFrags)
	}
	t.Logf("pinned %d fragments (%d legacy-eligible, %d more eligible now)", frags, eligibleFrags, widened)
}

// corpusEnv builds an environment for k with every buffer filled from
// seed: small non-negative integers (mostly valid indices, sometimes far
// out of range), mixed-sign floats, and random validity masks. Equal seeds give
// equal environments.
func corpusEnv(t *testing.T, k *kernel.Kernel, seed int64) *exec.Env {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	env := exec.NewEnv(k)
	for i, d := range k.Bufs {
		b := env.Bufs[i]
		if b == nil {
			b = &exec.Buffer{Kind: d.Kind}
			if d.Kind == vector.Int {
				b.I = make([]int64, d.Size)
			} else {
				b.F = make([]float64, d.Size)
			}
			if d.Valid {
				b.Valid = make([]bool, d.Size)
			}
			env.Bufs[i] = b
		}
		for j := range b.I {
			b.I[j] = r.Int63n(24)
			if r.Intn(32) == 0 {
				b.I[j] = 1 << 20
			}
		}
		for j := range b.F {
			b.F[j] = float64(r.Intn(64)-16) / 4
		}
		for j := range b.Valid {
			b.Valid[j] = r.Intn(4) != 0
		}
	}
	return env
}

// sameEnvs reports the first difference between two environments'
// buffers (values bit for bit, validity masks), or "".
func sameEnvs(k *kernel.Kernel, want, got *exec.Env) string {
	for i, d := range k.Bufs {
		w, g := want.Bufs[i], got.Bufs[i]
		for j := range w.I {
			if w.I[j] != g.I[j] {
				return fmt.Sprintf("buf %s[%d] = %d, want %d", d.Name, j, g.I[j], w.I[j])
			}
		}
		for j := range w.F {
			if math.Float64bits(w.F[j]) != math.Float64bits(g.F[j]) {
				return fmt.Sprintf("buf %s[%d] = %v, want %v", d.Name, j, g.F[j], w.F[j])
			}
		}
		for j := range w.Valid {
			if w.Valid[j] != g.Valid[j] {
				return fmt.Sprintf("buf %s[%d] valid = %v, want %v", d.Name, j, g.Valid[j], w.Valid[j])
			}
		}
	}
	return ""
}

// disjointStores reports whether every store of f writes at RegIdx or
// RegGID, so work items never write the same slot whatever the data.
// Stores at computed positions rely on the compiler's data (unique
// scatter positions, per-item cursors); on seeded data they may collide
// across work items, which only one worker orders deterministically.
func disjointStores(f *kernel.Fragment) bool {
	secs := [][]kernel.Instr{f.Pre, f.Post, f.PostLoopBody}
	for _, l := range f.Loops {
		secs = append(secs, l.Body)
	}
	for _, sec := range secs {
		for _, in := range sec {
			if in.Op == kernel.IStore && in.A != kernel.RegIdx && in.A != kernel.RegGID {
				return false
			}
		}
	}
	return true
}

// TestSplitParityCorpus is the parity gate of the batch path: every
// difftest-corpus fragment BatchFacts accepts runs in isolation, on
// seeded buffer contents, under batch-only and full specialization at
// morsel sizes {1, 7, default} × workers {1, 4}, each twice (the first
// run of a small fragment interprets, the second runs compiled), and
// must match the interpreter bit for bit: every buffer, every validity
// mask, and the error text. Fragments storing at computed positions run
// with one worker only (see disjointStores); difftest's specialize-sweep
// combo covers them with four workers on the data they were compiled
// for.
func TestSplitParityCorpus(t *testing.T) {
	seeds := int64(150)
	if testing.Short() {
		seeds = 40
	}
	ctx := context.Background()
	checked, split, errs := 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		p := difftest.Generate(seed)
		for _, opt := range []compile.Options{{}, {Predication: true}} {
			plan, err := compile.Compile(p.Prog, p.St, opt)
			if err != nil {
				continue
			}
			k := plan.Kernel()
			for fi, f := range k.Frags {
				facts := verify.BatchFacts(f)
				if !facts.BatchEligible {
					continue
				}
				checked++
				if facts.Split {
					split++
				}
				envSeed := seed*1000 + int64(fi)
				want := corpusEnv(t, k, envSeed)
				werr := exec.RunFragmentPar(ctx, f, want, exec.Par{Workers: 1, Spec: exec.SpecializeOff}, nil)
				if werr != nil {
					errs++
				}
				for _, spec := range []exec.SpecMode{exec.SpecializeBatchOnly, exec.SpecializeAuto} {
					for _, morsel := range []int{1, 7, 0} {
						for _, workers := range []int{1, 4} {
							if workers > 1 && !disjointStores(f) {
								continue
							}
							for rep := 0; rep < 2; rep++ {
								got := corpusEnv(t, k, envSeed)
								par := exec.Par{Workers: workers, Morsel: morsel, Spec: spec}
								gerr := exec.RunFragmentPar(ctx, f, got, par, nil)
								label := fmt.Sprintf("seed %d %+v frag %s %+v rep %d", seed, opt, f.Name, par, rep)
								if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
									t.Fatalf("%s: error %v, interpreter %v\n%s", label, gerr, werr, f.Fingerprint())
								}
								if werr != nil {
									continue
								}
								if d := sameEnvs(k, want, got); d != "" {
									t.Fatalf("%s: %s\n%s", label, d, f.Fingerprint())
								}
							}
						}
					}
				}
			}
		}
	}
	if checked == 0 || split == 0 {
		t.Fatalf("sweep too thin: %d eligible fragments, %d with a carried phase", checked, split)
	}
	t.Logf("checked %d eligible fragments (%d split, %d failing on seeded data)", checked, split, errs)
}
