package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"voodoo/internal/trace"
)

// span is one timed interval of a traced run. Spans of one query share
// Query; Parent is the ID of the enclosing span (0 for a query's root).
// Fragment spans carry the execution path (Path) and work items the
// engine trace reported for them.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Path   string `json:"path,omitempty"`
	Items  int64  `json:"items,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// key is the layer a span's self time counts toward.
func (s span) key() string {
	if s.Path != "" {
		return s.Name + "." + s.Path
	}
	return s.Name
}

// recorder keeps the spans of a traced run in memory until the run ends.
// It is safe for concurrent use.
type recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	queries int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// at converts a wall-clock instant to the recorder's nanosecond timeline.
func (r *recorder) at(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// newQuery returns a fresh query id for a root span and its descendants.
func (r *recorder) newQuery() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queries++
	return r.queries
}

// add records s, assigning and returning its ID.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// end sets the end of span id to t.
func (r *recorder) end(id int, t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = r.at(t)
}

// addTrace records an engine trace beneath parent. The trace gives each
// step's duration but not its start, so the plan span starts at start
// and its steps are laid end to end inside it in execution order; the
// durations, and so every self time, are exact.
func (r *recorder) addTrace(query, parent int, start int64, tr *trace.Trace) {
	plan := r.add(span{Parent: parent, Query: query, Name: "exec.plan", Start: start, End: start + tr.WallNS})
	t := start
	for _, st := range tr.Steps {
		s := span{Parent: plan, Query: query, Name: "exec." + st.Kind, Items: st.Items, Start: t, End: t + st.WallNS}
		switch st.Kind {
		case trace.KindFragment:
			s.Path = st.Specialized
			if s.Path == "" {
				s.Path = "unknown"
			}
		case trace.KindBulk, trace.KindPruned:
			s.Name, s.Path = "exec."+trace.KindFragment, st.Kind
		}
		r.add(s)
		t += st.WallNS
	}
}

// layerTimes is the outcome of a traced run's self-time accounting.
type layerTimes struct {
	self  map[string]int64 // self time in ns by span key
	count map[string]int64 // spans by key
	items map[string]int64 // work items by key
	wall  int64            // summed duration of the root spans
}

// selfTimes computes each span's self time — its duration minus the part
// its child spans cover — summed by layer. It fails when a child leaves
// its parent's interval or overlaps a sibling, and checks that the self
// times sum to the roots' wall time.
func selfTimes(spans []span) (layerTimes, error) {
	lt := layerTimes{self: map[string]int64{}, count: map[string]int64{}, items: map[string]int64{}}
	covered := make([]int64, len(spans)+1)
	lastEnd := make([]int64, len(spans)+1)
	for _, s := range spans {
		if s.dur() < 0 {
			return lt, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			lt.wall += s.dur()
			continue
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return lt, fmt.Errorf("span %d (%s) leaves its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		if s.Start < lastEnd[p.ID] {
			return lt, fmt.Errorf("span %d (%s) overlaps an earlier sibling", s.ID, s.Name)
		}
		lastEnd[p.ID] = s.End
		covered[p.ID] += s.dur()
	}
	var sum int64
	for _, s := range spans {
		self := s.dur() - covered[s.ID]
		lt.self[s.key()] += self
		lt.count[s.key()]++
		lt.items[s.key()] += s.Items
		sum += self
	}
	if sum != lt.wall {
		return lt, fmt.Errorf("self times sum to %d ns, traced wall is %d ns", sum, lt.wall)
	}
	return lt, nil
}

// writeSpans writes the spans as JSON Lines, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
