package compile

import (
	"context"
	"testing"

	"voodoo/internal/core"
	"voodoo/internal/interp"
	"voodoo/internal/trace"
)

// TestTracedRunKeepsUntracedPaths: tracing alone leaves every fragment on
// the path an untraced run takes — the selection's cursor store is random,
// so only its batch event counts would be inexact — and the trace names
// the reason when CollectStats forces the interpreter.
func TestTracedRunKeepsUntracedPaths(t *testing.T) {
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(i*7) % 11
	}
	b := core.NewBuilder()
	in := b.Load("t")
	sel := b.FoldSelect(b.Greater(in, b.Constant(4)), "", "")
	b.Materialize(sel, sel, "")
	plan, err := Compile(b.Program(), interp.MemStorage{"t": intVec("v", vals...)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	paths := func(ro RunOpts) map[string]trace.Step {
		t.Helper()
		_, tr, err := plan.RunTracedWith(context.Background(), ro)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]trace.Step{}
		for _, s := range tr.Steps {
			if s.Kind == trace.KindFragment {
				m[s.Name] = s
			}
		}
		return m
	}
	traced, counted := paths(RunOpts{}), paths(RunOpts{CollectStats: true})
	if len(traced) == 0 {
		t.Fatal("no fragment steps traced")
	}
	interpreted := 0
	for name, s := range traced {
		if s.Specialized == "interp" {
			t.Errorf("traced run interpreted %s (%s)", name, s.Fallback)
		}
		if s.Items == 0 {
			t.Errorf("traced run of %s counted no items", name)
		}
		c := counted[name]
		if c.Items != s.Items || c.MaterializedBytes != s.MaterializedBytes {
			t.Errorf("%s: traced items/bytes %d/%d, counted %d/%d", name, s.Items, s.MaterializedBytes, c.Items, c.MaterializedBytes)
		}
		if c.Specialized == "interp" {
			interpreted++
			if c.Fallback != "counted" {
				t.Errorf("counted run of %s interpreted for %q, want counted", name, c.Fallback)
			}
		}
	}
	if interpreted == 0 {
		t.Error("no fragment of the counted run fell back for exact counts")
	}
}
