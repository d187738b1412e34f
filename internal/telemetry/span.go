package telemetry

import (
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"time"

	"voodoo/internal/trace"
)

// Span is one exportable span: flat, OTLP-shaped JSON (ids as lowercase
// hex, times as unix nanoseconds) so the output of /debug/spans or the
// voodoo-trace tool can be mapped onto any tracing backend without a
// vendor SDK in the build.
type Span struct {
	TraceID      string         `json:"trace_id"`
	SpanID       string         `json:"span_id"`
	ParentSpanID string         `json:"parent_span_id,omitempty"`
	Name         string         `json:"name"`
	StartUnixNS  int64          `json:"start_unix_ns"`
	EndUnixNS    int64          `json:"end_unix_ns"`
	Status       string         `json:"status,omitempty"` // "" = ok
	Attrs        map[string]any `json:"attrs,omitempty"`
}

// QuerySpans is one query's full span tree, flattened parent-linked —
// the /debug/spans payload.
type QuerySpans struct {
	QueryID string `json:"query_id"`
	SQL     string `json:"sql,omitempty"`
	Spans   []Span `json:"spans"`
}

// QueryMeta describes the request-level phases of one query; BuildSpans
// combines it with the execution traces into the span tree.
type QueryMeta struct {
	ID    QueryID
	SQL   string
	Start time.Time // request arrival
	End   time.Time // response written

	QueueWait  time.Duration // admission-semaphore wait
	PlanLookup time.Duration // plan-cache probe
	Compile    time.Duration // parse+plan+compile (0 on a cache hit)
	Cached     bool

	Status string // "" on success, else the error kind + message
}

// BuildSpans converts a finished query — its admission/plan phases plus
// the execution traces the engine produced (one per lowered program) —
// into an exportable span tree rooted at the query's root span.
//
// trace.Step records carry durations, not timestamps; steps of one
// program run sequentially in plan order, so each step span's start is
// the cumulative wall of its predecessors. Parallelism inside a step
// (workers, morsels) stays attribute-level, which is exactly how the
// paper's figures reason about fragments too.
func BuildSpans(m QueryMeta, traces []*trace.Trace) QuerySpans {
	qs := QuerySpans{QueryID: m.ID.String(), SQL: m.SQL}
	tid := m.ID.String()
	root := m.ID.SpanIDString()
	start := m.Start.UnixNano()

	rootSpan := Span{
		TraceID: tid, SpanID: root, ParentSpanID: m.ID.ParentString(),
		Name: "query", StartUnixNS: start, EndUnixNS: m.End.UnixNano(),
		Status: m.Status,
		Attrs:  map[string]any{"sql": m.SQL, "cached_plan": m.Cached},
	}
	qs.Spans = append(qs.Spans, rootSpan)

	seq := 0
	child := func(name string, parent string, startNS, durNS int64, attrs map[string]any) string {
		seq++
		id := deriveSpanID(m.ID, seq)
		qs.Spans = append(qs.Spans, Span{
			TraceID: tid, SpanID: id, ParentSpanID: parent, Name: name,
			StartUnixNS: startNS, EndUnixNS: startNS + durNS, Attrs: attrs,
		})
		return id
	}

	cursor := start
	if m.QueueWait > 0 {
		child("admission.wait", root, cursor, m.QueueWait.Nanoseconds(), nil)
		cursor += m.QueueWait.Nanoseconds()
	}
	if m.PlanLookup > 0 || m.Compile > 0 {
		child("plan", root, cursor, (m.PlanLookup + m.Compile).Nanoseconds(),
			map[string]any{"cache_lookup_ns": m.PlanLookup.Nanoseconds(),
				"compile_ns": m.Compile.Nanoseconds(), "cached": m.Cached})
		cursor += (m.PlanLookup + m.Compile).Nanoseconds()
	}

	for pi, t := range traces {
		attrs := map[string]any{
			"backend": t.Backend, "fragments": t.Fragments, "bulk_steps": t.BulkSteps,
			"items": t.Items, "materialized_bytes": t.MaterializedBytes,
			"alloc_bytes": t.AllocBytes,
		}
		phase := child("exec", root, cursor, t.WallNS, attrs)
		if pi > 0 || len(traces) > 1 {
			qs.Spans[len(qs.Spans)-1].Attrs["phase"] = pi
		}
		stepCursor := cursor
		for i := range t.Steps {
			s := &t.Steps[i]
			sa := map[string]any{"kind": s.Kind, "items": s.Items}
			if s.Workers > 0 {
				sa["workers"] = s.Workers
			}
			if s.Morsels > 0 {
				sa["morsels"] = s.Morsels
				sa["imbalance"] = s.Imbalance
			}
			if s.MaterializedBytes > 0 {
				sa["materialized_bytes"] = s.MaterializedBytes
			}
			if s.FoldRuns > 0 {
				sa["fold_runs"] = s.FoldRuns
			}
			if s.ScatterItems > 0 {
				sa["scatter_items"] = s.ScatterItems
			}
			if s.Fused {
				sa["fused_stmts"] = len(s.Stmts)
			}
			if s.Virtual {
				sa["virtual_scatter"] = true
			}
			if s.Suppressed {
				sa["empty_slot_suppression"] = true
			}
			if s.Specialized != "" {
				sa["specialized"] = s.Specialized
			}
			if s.Fallback != "" {
				sa["fallback"] = s.Fallback
			}
			child(s.Kind+" "+s.Name, phase, stepCursor, s.WallNS, sa)
			stepCursor += s.WallNS
		}
		cursor += t.WallNS
	}
	return qs
}

// deriveSpanID derives a deterministic non-zero child span id from the
// query's root span and a per-tree sequence number — rebuilding the same
// query's tree yields the same ids, which keeps tests and diffing sane.
func deriveSpanID(q QueryID, seq int) string {
	h := fnv.New64a()
	h.Write(q.TraceID[:])
	h.Write(q.SpanID[:])
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(seq))
	h.Write(n[:])
	binary.BigEndian.PutUint64(n[:], h.Sum64()|1) // never zero
	return hex.EncodeToString(n[:])
}
