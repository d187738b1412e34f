package main

import (
	"fmt"
	"math"
	"sort"

	"voodoo/internal/rel"
	"voodoo/internal/storage"
)

// cell is one result value: a number, or the decoded string of a
// dictionary-encoded column.
type cell struct {
	str   string
	num   float64
	isStr bool
}

func (a cell) less(b cell) bool {
	if a.isStr != b.isStr {
		return !a.isStr
	}
	if a.isStr {
		return a.str < b.str
	}
	return a.num < b.num
}

// answer is a result table in canonical form: columns sorted by name,
// rows sorted by their cells, so two engines' answers compare whatever
// order they broke ties in.
type answer struct {
	cols []string
	rows [][]cell
}

func canonical(cols []string, rows [][]cell) answer {
	order := make([]int, len(cols))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return cols[order[i]] < cols[order[j]] })
	a := answer{cols: make([]string, len(cols)), rows: make([][]cell, len(rows))}
	for i, o := range order {
		a.cols[i] = cols[o]
	}
	for r, row := range rows {
		out := make([]cell, len(row))
		for i, o := range order {
			out[i] = row[o]
		}
		a.rows[r] = out
	}
	sort.SliceStable(a.rows, func(i, j int) bool {
		for c := range a.cols {
			x, y := a.rows[i][c], a.rows[j][c]
			if x.less(y) {
				return true
			}
			if y.less(x) {
				return false
			}
		}
		return false
	})
	return a
}

// numericAnswer canonicalizes an engine result with every value as a
// number (dictionary codes stay codes): the form in which two engines on
// one catalog compare.
func numericAnswer(res *rel.Result) answer {
	rows := make([][]cell, len(res.Rows))
	for i, r := range res.Rows {
		row := make([]cell, len(res.Cols))
		for j, c := range res.Cols {
			row[j] = cell{num: r[c]}
		}
		rows[i] = row
	}
	return canonical(res.Cols, rows)
}

// decodedAnswer canonicalizes an engine result with dictionary-encoded
// columns decoded to their strings: the form the HTTP server returns.
func decodedAnswer(res *rel.Result, cat *storage.Catalog) answer {
	dicts := make([]*storage.Table, len(res.Cols))
	for j, c := range res.Cols {
		for _, name := range cat.Tables() {
			t := cat.Table(name)
			if d, ok := t.Def(c); ok && d.Dict != nil {
				dicts[j] = t
			}
		}
	}
	rows := make([][]cell, len(res.Rows))
	for i, r := range res.Rows {
		row := make([]cell, len(res.Cols))
		for j, c := range res.Cols {
			if dicts[j] != nil {
				row[j] = cell{str: dicts[j].Decode(c, int64(r[c])), isStr: true}
			} else {
				row[j] = cell{num: r[c]}
			}
		}
		rows[i] = row
	}
	return canonical(res.Cols, rows)
}

// jsonAnswer canonicalizes the rows of a JSON query response, where a
// value is a JSON number or a decoded string.
func jsonAnswer(cols []string, rows []map[string]any) (answer, error) {
	out := make([][]cell, len(rows))
	for i, r := range rows {
		row := make([]cell, len(cols))
		for j, c := range cols {
			switch v := r[c].(type) {
			case float64:
				row[j] = cell{num: v}
			case string:
				row[j] = cell{str: v, isStr: true}
			default:
				return answer{}, fmt.Errorf("row %d column %s: unexpected value %v", i, c, r[c])
			}
		}
		out[i] = row
	}
	return canonical(cols, out), nil
}

// diff returns nil when two answers agree: same columns, same row count,
// equal strings, and numbers within 1e-6 relative tolerance.
func (a answer) diff(b answer) error {
	if fmt.Sprint(a.cols) != fmt.Sprint(b.cols) {
		return fmt.Errorf("columns %v vs %v", a.cols, b.cols)
	}
	if len(a.rows) != len(b.rows) {
		return fmt.Errorf("%d rows vs %d rows", len(a.rows), len(b.rows))
	}
	for i := range a.rows {
		for j, x := range a.rows[i] {
			y := b.rows[i][j]
			if x.isStr != y.isStr || x.str != y.str || math.IsNaN(x.num) != math.IsNaN(y.num) ||
				math.Abs(x.num-y.num) > 1e-6*math.Max(1, math.Abs(x.num)) {
				return fmt.Errorf("row %d column %s: %+v vs %+v", i, a.cols[j], x, y)
			}
		}
	}
	return nil
}
