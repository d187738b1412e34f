package main

import (
	"fmt"
	"math"
	"math/rand"

	"voodoo/internal/tpch"
)

// The catalog every workload runs against: TPC-H at SF 0.01 (lineitem
// ≈ 60K rows), generated from the run's seed.
const scaleFactor = 0.01

func catalogConfig(seed int64) tpch.Config { return tpch.Config{SF: scaleFactor, Seed: seed} }

// tpchQueries are the evaluated TPC-H queries, in the paper's order.
var tpchQueries = tpch.QueryNumbers

// statement is one SQL request of a serve workload.
type statement struct {
	tmpl int // index into templates
	sql  string
}

// template draws one SQL statement over the small TPC-H tables (supplier,
// nation, region, customer). Literal ranges keep every group non-empty,
// so no answer depends on how an engine reports an aggregate over zero
// rows. u in [0, 1) places the statement's main literal in its range.
type template struct {
	name string
	gen  func(r *rand.Rand, u float64) string
}

// money places an account-balance literal with two decimals at u in
// [lo, hi).
func money(u, lo, hi float64) float64 {
	return lo + math.Floor(u*(hi-lo)*100)/100
}

var templates = []template{
	{"supplier_balance", func(r *rand.Rand, u float64) string {
		return fmt.Sprintf("SELECT COUNT(*) AS n, SUM(s_acctbal) AS bal FROM supplier WHERE s_acctbal > %.2f",
			money(u, -1000, 15000))
	}},
	{"supplier_nations", func(r *rand.Rand, u float64) string {
		lo := money(u, -1000, 9000)
		return fmt.Sprintf("SELECT s_nationkey, COUNT(*) AS n, MAX(s_acctbal) AS top FROM supplier "+
			"WHERE s_acctbal BETWEEN %.2f AND %.2f GROUP BY s_nationkey ORDER BY s_nationkey",
			lo, lo+money(r.Float64(), 2000, 10000))
	}},
	// The foreign-key join: supplier to nation.
	{"supplier_nation_names", func(r *rand.Rand, u float64) string {
		return fmt.Sprintf("SELECT n_name, COUNT(*) AS n, SUM(s_acctbal) AS bal FROM supplier "+
			"JOIN nation ON s_nationkey = n_nationkey WHERE s_acctbal > %.2f GROUP BY n_name",
			money(u, -1000, 5000))
	}},
	{"supplier_regions", func(r *rand.Rand, u float64) string {
		return fmt.Sprintf("SELECT r_name, COUNT(*) AS n, SUM(s_acctbal) AS bal FROM supplier "+
			"JOIN nation ON s_nationkey = n_nationkey JOIN region ON n_regionkey = r_regionkey "+
			"WHERE s_acctbal < %.2f GROUP BY r_name", money(u, 5000, 19000))
	}},
	{"customer_balance", func(r *rand.Rand, u float64) string {
		return fmt.Sprintf("SELECT COUNT(*) AS n, SUM(c_acctbal) AS bal FROM customer WHERE c_acctbal > %.2f",
			money(u, -1000, 9000))
	}},
}

// Statement-set sizes. The serve-repeat set fits the server's default
// 256-entry plan cache, so after warm-up every request hits. The
// serve-adhoc pool is 16 times that capacity: requests walk it in order,
// so under LRU every statement has been evicted before it comes round
// again and every request misses.
const (
	defaultPlanCache = 256
	repeatSetSize    = 32
	adhocPoolSize    = 16 * defaultPlanCache
	literalStrata    = 8
)

// statements draws n pairwise-distinct statements from the templates in
// turn, deterministically from seed. stream tells the two workloads'
// streams apart, so they never share a statement.
func statements(seed int64, stream string, n int) []statement {
	h := int64(0)
	for _, c := range stream {
		h = h*31 + int64(c)
	}
	r := rand.New(rand.NewSource(seed*1_000_003 + h))
	seen := make(map[string]bool, n)
	out := make([]statement, 0, n)
	drawn := make([]int, len(templates))
	for i := 0; len(out) < n; i++ {
		t := i % len(templates)
		// Successive draws of a template take its literal from successive
		// strata of the range, so every seed's set spans the range alike
		// and statement costs do not depend on the seed.
		u := (float64(drawn[t]%literalStrata) + r.Float64()) / literalStrata
		drawn[t]++
		s := templates[t].gen(r, u)
		if seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, statement{tmpl: t, sql: s})
	}
	return out
}

func repeatStatements(seed int64) []statement {
	return statements(seed, "serve-repeat", repeatSetSize)
}

func adhocStatements(seed int64) []statement {
	return statements(seed, "serve-adhoc", adhocPoolSize)
}
