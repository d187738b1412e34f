package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestSameSeedSameStatements(t *testing.T) {
	for _, gen := range []func(int64) []statement{repeatStatements, adhocStatements} {
		a, b := gen(7), gen(7)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("one seed gave two different statement streams")
		}
		if reflect.DeepEqual(a, gen(8)) {
			t.Fatal("two seeds gave the same statement stream")
		}
	}
}

func TestAdhocStatementsDistinct(t *testing.T) {
	// Pairwise distinct statements walked in order through an LRU of
	// defaultPlanCache entries never hit: each comes round again only
	// after more than the cache's capacity of others.
	stmts := adhocStatements(1)
	if len(stmts) <= defaultPlanCache {
		t.Fatalf("serve-adhoc pool of %d statements fits the %d-entry plan cache", len(stmts), defaultPlanCache)
	}
	seen := map[string]bool{}
	for _, s := range stmts {
		if seen[s.sql] {
			t.Fatalf("statement repeats: %s", s.sql)
		}
		seen[s.sql] = true
	}
	for _, s := range repeatStatements(1) {
		if seen[s.sql] {
			t.Fatalf("serve-repeat and serve-adhoc share a statement: %s", s.sql)
		}
	}
}

func TestRepeatSetFitsPlanCache(t *testing.T) {
	n := len(repeatStatements(1))
	if n <= 1 || n > defaultPlanCache {
		t.Fatalf("serve-repeat set has %d statements, want 2..%d", n, defaultPlanCache)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, e2eMetrics...), layerMetrics...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q uses more than letters, digits, _, . and -", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q is defined twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestBenchmarkFile checks that BENCHMARK.json at the repository root
// lists exactly the metrics the program reports.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, file, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(file), len(prog))
			return
		}
		for i := range file {
			f, p := file[i], prog[i]
			if f.Name != p.Name || f.Unit != p.Unit || f.Better != p.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, the program %s %s %s",
					kind, i, f.Name, f.Unit, f.Better, p.Name, p.Unit, p.Better)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, e2eMetrics)
	same("per_layer", bf.PerLayer, layerMetrics)
}
