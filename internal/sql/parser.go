package sql

import (
	"fmt"
	"strconv"
)

// ---- AST ----------------------------------------------------------------

// Expr is a parsed scalar expression (unresolved: string literals and
// column references bind to the catalog during planning).
type Expr interface{ isSQLExpr() }

// ColRef references a column by (lower-cased) name.
type ColRef struct{ Name string }

// NumLit is a numeric literal.
type NumLit struct {
	I     int64
	F     float64
	IsInt bool
}

// StrLit is a string literal (resolved against a dictionary at planning).
type StrLit struct{ S string }

// DateLit is DATE 'YYYY-MM-DD' (resolved to day numbers at planning).
type DateLit struct{ S string }

// BinEx is a binary expression; Op is the SQL spelling (+ - * / % = <> < <=
// > >= AND OR).
type BinEx struct {
	Op   string
	L, R Expr
}

// NotEx negates a boolean expression.
type NotEx struct{ E Expr }

// BetweenEx is e BETWEEN lo AND hi.
type BetweenEx struct{ E, Lo, Hi Expr }

// InEx is e IN (v, ...).
type InEx struct {
	E  Expr
	Vs []Expr
}

func (ColRef) isSQLExpr()    {}
func (NumLit) isSQLExpr()    {}
func (StrLit) isSQLExpr()    {}
func (DateLit) isSQLExpr()   {}
func (BinEx) isSQLExpr()     {}
func (NotEx) isSQLExpr()     {}
func (BetweenEx) isSQLExpr() {}
func (InEx) isSQLExpr()      {}

// SelectItem is one output column.
type SelectItem struct {
	Agg   string // "", "SUM", "COUNT", "AVG", "MIN", "MAX"
	E     Expr   // nil for COUNT(*)
	Alias string
}

// JoinClause is JOIN table ON left = right.
type JoinClause struct {
	Table string
	L, R  string // column names; sides resolved during planning
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Col  string
	Desc bool
}

// SelectStmt is a parsed query.
type SelectStmt struct {
	Items   []SelectItem
	From    string
	Joins   []JoinClause
	Where   Expr
	GroupBy []string
	Having  Expr
	OrderBy []OrderItem
	// Limit is the LIMIT count when HasLimit is set (LIMIT 0 included).
	Limit    int
	HasLimit bool
}

// ---- Parser ---------------------------------------------------------------

type parser struct {
	toks []token
	i    int
}

// Parse parses one SELECT statement.
func Parse(src string) (*SelectStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, p.errf("trailing input")
	}
	return stmt, nil
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) at(k tokKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

func (p *parser) accept(k tokKind, text string) bool {
	if p.at(k, text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(k tokKind, text string) (token, error) {
	if !p.at(k, text) {
		return token{}, p.errf("expected %q, found %q", text, p.cur().text)
	}
	return p.next(), nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: position %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	for {
		item, err := p.parseItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	stmt.From = t.text
	for p.accept(tokKeyword, "JOIN") {
		jt, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		l, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		r, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, JoinClause{Table: jt.text, L: l.text, R: r.text})
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, c.text)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		h, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			o := OrderItem{Col: c.text}
			if p.accept(tokKeyword, "DESC") {
				o.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, o)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		v, err := strconv.Atoi(n.text)
		if err != nil || v < 0 {
			return nil, p.errf("bad limit %q", n.text)
		}
		stmt.Limit, stmt.HasLimit = v, true
	}
	return stmt, nil
}

var aggNames = map[string]bool{"SUM": true, "COUNT": true, "AVG": true, "MIN": true, "MAX": true}

func (p *parser) parseItem() (SelectItem, error) {
	var item SelectItem
	if p.cur().kind == tokKeyword && aggNames[p.cur().text] {
		item.Agg = p.next().text
		if _, err := p.expect(tokOp, "("); err != nil {
			return item, err
		}
		if item.Agg == "COUNT" && p.accept(tokOp, "*") {
			// COUNT(*): no expression.
		} else {
			e, err := p.parseAdd()
			if err != nil {
				return item, err
			}
			item.E = e
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return item, err
		}
	} else {
		e, err := p.parseAdd()
		if err != nil {
			return item, err
		}
		item.E = e
	}
	if p.accept(tokKeyword, "AS") {
		a, err := p.expect(tokIdent, "")
		if err != nil {
			return item, err
		}
		item.Alias = a.text
	}
	return item, nil
}

// Precedence: OR < AND < NOT < comparison/BETWEEN/IN < add < mul < unary.

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = BinEx{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = BinEx{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return NotEx{E: e}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "BETWEEN") {
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return BetweenEx{E: l, Lo: lo, Hi: hi}, nil
	}
	if p.accept(tokKeyword, "IN") {
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		var vs []Expr
		for {
			v, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			vs = append(vs, v)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return InEx{E: l, Vs: vs}, nil
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.accept(tokOp, op) {
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return BinEx{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokOp, "+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = BinEx{Op: "+", L: l, R: r}
		case p.accept(tokOp, "-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = BinEx{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokOp, "*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = BinEx{Op: "*", L: l, R: r}
		case p.accept(tokOp, "/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = BinEx{Op: "/", L: l, R: r}
		case p.accept(tokOp, "%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = BinEx{Op: "%", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokOp, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return BinEx{Op: "-", L: NumLit{IsInt: true}, R: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.next()
		if i, err := strconv.ParseInt(t.text, 10, 64); err == nil {
			return NumLit{I: i, IsInt: true}, nil
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return NumLit{F: f}, nil
	case t.kind == tokString:
		p.next()
		return StrLit{S: t.text}, nil
	case t.kind == tokKeyword && t.text == "DATE":
		p.next()
		s, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		return DateLit{S: s.text}, nil
	case t.kind == tokIdent:
		p.next()
		return ColRef{Name: t.text}, nil
	case t.kind == tokOp && t.text == "(":
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("unexpected token %q", t.text)
}
