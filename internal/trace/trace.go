// Package trace is the observability layer of the execution stack: a
// per-query Trace records, per plan step and per fragment, wall time, work
// items, worker utilization, and the bytes allocated and materialized at
// fragment seams — the quantities the paper's Figures 14–16 argue about
// (fusion, empty-slot suppression, virtual scatter).
//
// Collection is opt-in and near-zero cost when disabled: the executor's
// per-item counting stays behind its existing stats gate, and the only
// always-on instrumentation is one atomic add per fragment and per query
// (see Counters). Traces are per-query objects owned by their caller, so
// concurrent queries on one engine never share mutable trace state.
package trace

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"voodoo/internal/metrics"
)

// Step kinds. Fragment and bulk steps come from the compiling backend;
// stmt steps from the interpreter; bind/persist/output are plan plumbing.
const (
	KindFragment = "fragment"
	KindBulk     = "bulk"
	KindBind     = "bind"
	KindPersist  = "persist"
	KindOutput   = "output"
	KindStmt     = "stmt"
	// KindPruned marks a fragment elided at plan time by zone-map
	// statistics (a selection whose predicate provably never passes).
	KindPruned = "pruned"
)

// Step is the trace record of one plan step (one fragment, bulk step, or
// interpreted statement).
type Step struct {
	Index int    `json:"index"`
	Kind  string `json:"kind"`
	Name  string `json:"name"`

	// Stmts lists the SSA statement ids fused into this step — more than
	// one means the compiler fused operators into a single fragment.
	Stmts []int `json:"stmts,omitempty"`
	// Fused mirrors len(Stmts) > 1 for quick filtering.
	Fused bool `json:"fused,omitempty"`

	// Fusion decision flags (compiling backend only).
	Suppressed bool `json:"empty_slot_suppression,omitempty"`
	Virtual    bool `json:"virtual_scatter,omitempty"`
	Predicated bool `json:"predicated,omitempty"`

	// Specialized records which execution path ran a fragment step:
	// "fused" (single-closure fast path), "batch" (compiled batch
	// primitives), or "interp" (per-element interpreter fallback).
	Specialized string `json:"specialized,omitempty"`
	// Fallback says why an interpreted fragment did not take the batch
	// path: a verify.BatchFacts reason, or "counted", "fault-injection",
	// "off" or "first-run".
	Fallback string `json:"fallback,omitempty"`

	// Control-vector shape of a fragment: Extent parallel work items,
	// Intent sequential iterations each, over N guarded elements.
	Extent  int  `json:"extent,omitempty"`
	Intent  int  `json:"intent,omitempty"`
	N       int  `json:"n,omitempty"`
	Strided bool `json:"strided,omitempty"`

	WallNS  int64 `json:"wall_ns"`
	Workers int   `json:"workers,omitempty"`
	// Morsels is the number of scheduling morsels a parallel fragment was
	// split into; Imbalance is the busiest participant's morsel count over
	// an even share (1.0 = balanced).
	Morsels   int64   `json:"morsels,omitempty"`
	Imbalance float64 `json:"imbalance,omitempty"`
	// Items is the number of loop iterations (work items) executed.
	Items int64 `json:"items"`
	// MaterializedBytes counts the bytes this step wrote at a fragment
	// seam (stores into kernel buffers, bulk-step outputs, interpreter
	// statement outputs).
	MaterializedBytes int64 `json:"materialized_bytes"`
	// AllocBytes counts buffer bytes this step allocated at run time
	// (bulk-step outputs; fragment buffers are allocated up front and
	// appear in the trace's AllocBytes total).
	AllocBytes int64 `json:"alloc_bytes,omitempty"`

	// FoldRuns counts aggregation runs produced by fold steps;
	// ScatterItems counts elements moved by materialized scatters.
	// A virtual scatter moves nothing — that is the point.
	FoldRuns     int64 `json:"fold_runs,omitempty"`
	ScatterItems int64 `json:"scatter_items,omitempty"`

	IntOps       int64 `json:"int_ops,omitempty"`
	FloatOps     int64 `json:"float_ops,omitempty"`
	SeqBytes     int64 `json:"seq_bytes,omitempty"`
	RandAccesses int64 `json:"rand_accesses,omitempty"`
}

// Trace is the execution record of one query. It is owned by the caller of
// the Run*Traced entry point that produced it and is never shared.
type Trace struct {
	Query   string          `json:"query,omitempty"`
	Backend string          `json:"backend"`
	Options map[string]bool `json:"options,omitempty"`

	WallNS int64 `json:"wall_ns"`
	// AllocBytes is the query's total governed buffer allocation.
	AllocBytes int64  `json:"alloc_bytes"`
	Steps      []Step `json:"steps"`

	// Totals over Steps, computed by Finish.
	Fragments         int   `json:"fragments"`
	BulkSteps         int   `json:"bulk_steps"`
	Items             int64 `json:"items"`
	MaterializedBytes int64 `json:"materialized_bytes"`
	FoldRuns          int64 `json:"fold_runs"`
	ScatterItems      int64 `json:"scatter_items"`

	// OnStep, when set, receives each step synchronously as Add records
	// it — while the query is still running. This is the live-progress
	// feed of the diagnostics server's /queries endpoint. The observer
	// must be cheap and must not retain the Step's slices past the call.
	OnStep Observer `json:"-"`
}

// Observer receives completed steps of an in-flight query. The Run*Traced
// entry points pick it up from their context (WithObserver), so callers
// that only have a context — an HTTP request serving a query — can watch
// progress without new plumbing through the backends.
type Observer func(Step)

type observerKey struct{}

// WithObserver returns a context carrying o.
func WithObserver(ctx context.Context, o Observer) context.Context {
	return context.WithValue(ctx, observerKey{}, o)
}

// ObserverFrom extracts the step observer carried by ctx, or nil.
func ObserverFrom(ctx context.Context) Observer {
	o, _ := ctx.Value(observerKey{}).(Observer)
	return o
}

// Add appends a step, assigning its index, and streams it to the
// trace's observer when one is attached.
func (t *Trace) Add(s Step) {
	s.Index = len(t.Steps)
	t.Steps = append(t.Steps, s)
	if t.OnStep != nil {
		t.OnStep(s)
	}
}

// Finish totals the steps, records the query wall time, and folds the
// query into the process-wide cumulative counters.
func (t *Trace) Finish(wall time.Duration) {
	t.WallNS = wall.Nanoseconds()
	t.Fragments, t.BulkSteps = 0, 0
	t.Items, t.MaterializedBytes, t.FoldRuns, t.ScatterItems = 0, 0, 0, 0
	for i := range t.Steps {
		s := &t.Steps[i]
		switch s.Kind {
		case KindFragment:
			t.Fragments++
		case KindBulk:
			t.BulkSteps++
		}
		t.Items += s.Items
		t.MaterializedBytes += s.MaterializedBytes
		t.FoldRuns += s.FoldRuns
		t.ScatterItems += s.ScatterItems
	}
	countTrace(t)
}

// JSON renders the trace as indented JSON (the -trace artifact).
func (t *Trace) JSON() ([]byte, error) { return json.MarshalIndent(t, "", "  ") }

// String renders the EXPLAIN ANALYZE view: one line per step annotated
// with the measured numbers, then the query totals.
func (t *Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s backend", t.Backend)
	var opts []string
	for _, k := range [...]string{"predication", "forcebulk", "scatterparallel"} {
		if t.Options[k] {
			opts = append(opts, k)
		}
	}
	if len(opts) > 0 {
		fmt.Fprintf(&sb, " (%s)", strings.Join(opts, ", "))
	}
	if t.Query != "" {
		fmt.Fprintf(&sb, ": %s", t.Query)
	}
	sb.WriteString("\n")
	for i := range t.Steps {
		s := &t.Steps[i]
		fmt.Fprintf(&sb, "%3d. %-8s %-14s", s.Index, s.Kind, s.Name)
		if s.Extent > 0 {
			mode := "blocked"
			if s.Strided {
				mode = "strided"
			}
			fmt.Fprintf(&sb, " shape=%dx%d/%s", s.Extent, s.Intent, mode)
		}
		fmt.Fprintf(&sb, " wall=%s", time.Duration(s.WallNS))
		if s.Workers > 0 {
			fmt.Fprintf(&sb, " workers=%d", s.Workers)
		}
		if s.Morsels > 1 {
			fmt.Fprintf(&sb, " morsels=%d imb=%.2f", s.Morsels, s.Imbalance)
		}
		if s.Items > 0 {
			fmt.Fprintf(&sb, " items=%d", s.Items)
		}
		if s.MaterializedBytes > 0 {
			fmt.Fprintf(&sb, " mat=%dB", s.MaterializedBytes)
		}
		if s.FoldRuns > 0 {
			fmt.Fprintf(&sb, " folds=%d", s.FoldRuns)
		}
		if s.ScatterItems > 0 {
			fmt.Fprintf(&sb, " scatters=%d", s.ScatterItems)
		}
		var flags []string
		if s.Fused {
			flags = append(flags, fmt.Sprintf("fused:%d", len(s.Stmts)))
		}
		if s.Suppressed {
			flags = append(flags, "suppress")
		}
		if s.Virtual {
			flags = append(flags, "virtual")
		}
		if s.Predicated {
			flags = append(flags, "predicated")
		}
		if s.Specialized != "" && s.Specialized != "interp" {
			flags = append(flags, "spec:"+s.Specialized)
		}
		if s.Fallback != "" {
			flags = append(flags, "interp:"+s.Fallback)
		}
		if len(flags) > 0 {
			fmt.Fprintf(&sb, " [%s]", strings.Join(flags, " "))
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "total: wall=%s alloc=%dB fragments=%d bulk=%d items=%d materialized=%dB folds=%d scatters=%d\n",
		time.Duration(t.WallNS), t.AllocBytes, t.Fragments, t.BulkSteps,
		t.Items, t.MaterializedBytes, t.FoldRuns, t.ScatterItems)
	return sb.String()
}

// Counters are the process-wide cumulative execution counters, exported
// via expvar under "voodoo". Queries and Fragments count every execution
// (one atomic add each — cheap enough to stay always on); the remaining
// counters accumulate only from traced queries, whose per-item numbers
// exist.
type Counters struct {
	Queries           atomic.Int64
	Fragments         atomic.Int64
	TracedQueries     atomic.Int64
	Items             atomic.Int64
	BytesAllocated    atomic.Int64
	BytesMaterialized atomic.Int64
	FoldRuns          atomic.Int64
	ScatterItems      atomic.Int64
}

var global Counters

// CountQuery bumps the always-on per-query counter. Backends call it once
// per execution, traced or not.
func CountQuery() { global.Queries.Add(1) }

// CountFragment bumps the always-on per-fragment counter; the executor
// calls it once per fragment run.
func CountFragment() { global.Fragments.Add(1) }

// countTrace folds a finished trace's totals into the cumulative counters.
func countTrace(t *Trace) {
	global.TracedQueries.Add(1)
	global.Items.Add(t.Items)
	global.BytesAllocated.Add(t.AllocBytes)
	global.BytesMaterialized.Add(t.MaterializedBytes)
	global.FoldRuns.Add(t.FoldRuns)
	global.ScatterItems.Add(t.ScatterItems)
}

// Snapshot returns the current cumulative counter values.
func Snapshot() map[string]int64 {
	return map[string]int64{
		"queries":            global.Queries.Load(),
		"fragments":          global.Fragments.Load(),
		"traced_queries":     global.TracedQueries.Load(),
		"items":              global.Items.Load(),
		"bytes_allocated":    global.BytesAllocated.Load(),
		"bytes_materialized": global.BytesMaterialized.Load(),
		"fold_runs":          global.FoldRuns.Load(),
		"scatter_items":      global.ScatterItems.Load(),
	}
}

// queryWall is the always-on end-to-end latency histogram: exactly one
// observation per program execution, made by the backends next to their
// CountQuery call. Together with the two always-on atomic counters this
// is the entire hot-path cost of process observability.
var queryWall = metrics.NewHistogram("voodoo_query_wall_seconds",
	"End-to-end wall time of each executed program (every backend, traced or not).",
	metrics.DefBuckets)

// ObserveQueryWall records one query's wall time in the always-on
// latency histogram. Backends call it once per execution.
func ObserveQueryWall(d time.Duration) { queryWall.Observe(d.Seconds()) }

func init() {
	// The atomics in global are the single source of truth. expvar keeps
	// its historical "voodoo" map as a read-only view, and the Prometheus
	// registry bridges the same atomics through scrape-time closures —
	// no counter is ever double-counted.
	expvar.Publish("voodoo", expvar.Func(func() any { return Snapshot() }))
	for _, b := range []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"voodoo_queries_total", "Programs executed (every backend, traced or not).", &global.Queries},
		{"voodoo_fragments_total", "Kernel fragments executed.", &global.Fragments},
		{"voodoo_traced_queries_total", "Programs executed with tracing enabled.", &global.TracedQueries},
		{"voodoo_items_total", "Loop items executed by traced queries.", &global.Items},
		{"voodoo_bytes_allocated_total", "Buffer bytes allocated by traced queries.", &global.BytesAllocated},
		{"voodoo_bytes_materialized_total", "Bytes materialized at fragment seams by traced queries.", &global.BytesMaterialized},
		{"voodoo_fold_runs_total", "Aggregation runs produced by traced queries.", &global.FoldRuns},
		{"voodoo_scatter_items_total", "Elements moved by materialized scatters in traced queries.", &global.ScatterItems},
	} {
		v := b.v
		metrics.NewCounterFunc(b.name, b.help, func() float64 { return float64(v.Load()) })
	}
}
