package piql

import (
	"fmt"
	"strconv"
	"strings"

	"privateiye/internal/xmltree"
)

// token kinds
type tokKind int

const (
	tokEOF tokKind = iota
	tokKeyword
	tokIdent
	tokPath
	tokString
	tokNumber
	tokOp     // comparison operators
	tokComma  // ,
	tokLParen // (
	tokRParen // )
	tokStar   // *
)

type token struct {
	kind tokKind
	text string
	pos  int
}

var keywords = map[string]bool{
	"FOR": true, "WHERE": true, "GROUP": true, "BY": true, "RETURN": true,
	"ORDER": true, "DESC": true, "LIMIT": true,
	"PURPOSE": true, "MAXLOSS": true, "AND": true, "OR": true, "NOT": true,
	"CONTAINS": true, "EXISTS": true, "AS": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true, "STDDEV": true,
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/':
			j := i
			// A path runs until whitespace or a delimiter that cannot be
			// part of a path.
			for j < len(src) && !strings.ContainsRune(" \t\n\r,()=!<>'", rune(src[j])) {
				j++
			}
			toks = append(toks, token{tokPath, src[i:j], i})
			i = j
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			closed := false
			for j < len(src) {
				if src[j] == '\'' {
					if j+1 < len(src) && src[j+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						j += 2
						continue
					}
					closed = true
					j++
					break
				}
				sb.WriteByte(src[j])
				j++
			}
			if !closed {
				return nil, fmt.Errorf("piql: unterminated string at offset %d", i)
			}
			toks = append(toks, token{tokString, sb.String(), i})
			i = j
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == '*':
			toks = append(toks, token{tokStar, "*", i})
			i++
		case c == '=':
			toks = append(toks, token{tokOp, "=", i})
			i++
		case c == '!':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{tokOp, "!=", i})
				i += 2
			} else {
				return nil, fmt.Errorf("piql: stray '!' at offset %d", i)
			}
		case c == '<' || c == '>':
			op := string(c)
			if i+1 < len(src) && src[i+1] == '=' {
				op += "="
				i++
			}
			toks = append(toks, token{tokOp, op, i})
			i++
		case c >= '0' && c <= '9' || c == '-' || c == '.':
			j := i
			if src[j] == '-' {
				j++
			}
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			if _, err := strconv.ParseFloat(src[i:j], 64); err != nil {
				return nil, fmt.Errorf("piql: bad number %q at offset %d", src[i:j], i)
			}
			toks = append(toks, token{tokNumber, src[i:j], i})
			i = j
		default:
			if !isIdentStart(c) {
				return nil, fmt.Errorf("piql: unexpected character %q at offset %d", c, i)
			}
			j := i
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			word := src[i:j]
			if keywords[strings.ToUpper(word)] {
				toks = append(toks, token{tokKeyword, strings.ToUpper(word), i})
			} else {
				toks = append(toks, token{tokIdent, word, i})
			}
			i = j
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}

// Redact renders a query text for telemetry with its literals replaced
// by typed placeholders: a string reads '<string>', a number <number>,
// and a bare word compared against (WHERE //name = smith) <string>. It
// reads the text with the lexer, so a literal is exactly what parsing
// would take for one. Text that does not lex is not echoed at all.
func Redact(src string) string {
	toks, err := lex(src)
	if err != nil {
		return fmt.Sprintf("<unparsable query, %d bytes>", len(src))
	}
	var b strings.Builder
	for i, t := range toks[:len(toks)-1] {
		if i > 0 && t.kind != tokComma && t.kind != tokRParen && toks[i-1].kind != tokLParen {
			b.WriteByte(' ')
		}
		switch {
		case t.kind == tokString:
			b.WriteString("'<string>'")
		case t.kind == tokNumber:
			b.WriteString("<number>")
		case t.kind == tokIdent && i > 0 && toks[i-1].kind == tokOp:
			b.WriteString("<string>")
		default:
			b.WriteString(t.text)
		}
	}
	return b.String()
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
func isIdentChar(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '-'
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokKeyword || t.text != kw {
		return fmt.Errorf("piql: expected %s at offset %d, got %q", kw, t.pos, t.text)
	}
	return nil
}

func (p *parser) parsePath() (*xmltree.PathPattern, error) {
	t := p.next()
	if t.kind != tokPath {
		return nil, fmt.Errorf("piql: expected path at offset %d, got %q", t.pos, t.text)
	}
	pat, err := xmltree.CompilePattern(t.text)
	if err != nil {
		return nil, fmt.Errorf("piql: %w", err)
	}
	return pat, nil
}

// Parse parses PIQL source text into a Query.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q := &Query{MaxLoss: 1}

	if err := p.expectKeyword("FOR"); err != nil {
		return nil, err
	}
	if q.For, err = p.parsePath(); err != nil {
		return nil, err
	}

	if p.peek().kind == tokKeyword && p.peek().text == "WHERE" {
		p.next()
		if q.Where, err = p.parseOr(); err != nil {
			return nil, err
		}
	}

	if p.peek().kind == tokKeyword && p.peek().text == "GROUP" {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parsePath()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, g)
			if p.peek().kind != tokComma {
				break
			}
			p.next()
		}
	}

	if err := p.expectKeyword("RETURN"); err != nil {
		return nil, err
	}
	for {
		ri, err := p.parseReturnItem()
		if err != nil {
			return nil, err
		}
		q.Return = append(q.Return, ri)
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}

	if p.peek().kind == tokKeyword && p.peek().text == "ORDER" {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("piql: expected output column after ORDER BY at offset %d", t.pos)
		}
		q.OrderBy = t.text
		if p.peek().kind == tokKeyword && p.peek().text == "DESC" {
			p.next()
			q.OrderDesc = true
		}
	}
	if p.peek().kind == tokKeyword && p.peek().text == "LIMIT" {
		p.next()
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("piql: expected number after LIMIT at offset %d", t.pos)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("piql: LIMIT must be a positive integer, got %q", t.text)
		}
		q.Limit = n
	}
	if p.peek().kind == tokKeyword && p.peek().text == "PURPOSE" {
		p.next()
		t := p.next()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("piql: expected purpose name at offset %d", t.pos)
		}
		q.Purpose = t.text
	}
	if p.peek().kind == tokKeyword && p.peek().text == "MAXLOSS" {
		p.next()
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("piql: expected number after MAXLOSS at offset %d", t.pos)
		}
		v, _ := strconv.ParseFloat(t.text, 64)
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("piql: MAXLOSS %v out of [0,1]", v)
		}
		q.MaxLoss = v
	}
	if !p.atEOF() {
		t := p.peek()
		return nil, fmt.Errorf("piql: trailing input %q at offset %d", t.text, t.pos)
	}
	if len(q.GroupBy) > 0 && !q.IsAggregate() {
		return nil, fmt.Errorf("piql: GROUP BY requires aggregate return items")
	}
	return q, nil
}

// MustParse is Parse that panics, for statically known queries.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

func (p *parser) parseReturnItem() (ReturnItem, error) {
	t := p.peek()
	aggs := map[string]Agg{
		"COUNT": AggCount, "SUM": AggSum, "AVG": AggAvg,
		"MIN": AggMin, "MAX": AggMax, "STDDEV": AggStdDev,
	}
	var ri ReturnItem
	if t.kind == tokKeyword {
		agg, ok := aggs[t.text]
		if !ok {
			return ri, fmt.Errorf("piql: unexpected keyword %q in RETURN at offset %d", t.text, t.pos)
		}
		p.next()
		if tok := p.next(); tok.kind != tokLParen {
			return ri, fmt.Errorf("piql: expected '(' after %s at offset %d", t.text, tok.pos)
		}
		ri.Agg = agg
		if agg == AggCount && p.peek().kind == tokStar {
			p.next()
		} else {
			path, err := p.parsePath()
			if err != nil {
				return ri, err
			}
			ri.Path = path
		}
		if tok := p.next(); tok.kind != tokRParen {
			return ri, fmt.Errorf("piql: expected ')' at offset %d", tok.pos)
		}
	} else {
		path, err := p.parsePath()
		if err != nil {
			return ri, err
		}
		ri.Path = path
	}
	if p.peek().kind == tokKeyword && p.peek().text == "AS" {
		p.next()
		t := p.next()
		if t.kind != tokIdent {
			return ri, fmt.Errorf("piql: expected name after AS at offset %d", t.pos)
		}
		ri.As = t.text
	}
	return ri, nil
}

func (p *parser) parseOr() (Cond, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokKeyword && p.peek().text == "OR" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Cond, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokKeyword && p.peek().text == "AND" {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Cond, error) {
	if p.peek().kind == tokKeyword && p.peek().text == "NOT" {
		p.next()
		c, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Not{C: c}, nil
	}
	if p.peek().kind == tokLParen {
		p.next()
		c, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if t := p.next(); t.kind != tokRParen {
			return nil, fmt.Errorf("piql: expected ')' at offset %d", t.pos)
		}
		return c, nil
	}
	return p.parsePred()
}

func (p *parser) parsePred() (Cond, error) {
	if p.peek().kind == tokKeyword && p.peek().text == "EXISTS" {
		p.next()
		path, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		return &Exists{Path: path}, nil
	}
	path, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind == tokKeyword && t.text == "CONTAINS" {
		v := p.next()
		if v.kind != tokString {
			return nil, fmt.Errorf("piql: CONTAINS needs a string at offset %d", v.pos)
		}
		return &Contains{Path: path, Substr: v.text}, nil
	}
	if t.kind != tokOp {
		return nil, fmt.Errorf("piql: expected comparison operator at offset %d, got %q", t.pos, t.text)
	}
	ops := map[string]CmpOp{"=": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe}
	op, ok := ops[t.text]
	if !ok {
		return nil, fmt.Errorf("piql: unknown operator %q", t.text)
	}
	v := p.next()
	if v.kind != tokString && v.kind != tokNumber && v.kind != tokIdent {
		return nil, fmt.Errorf("piql: expected literal at offset %d, got %q", v.pos, v.text)
	}
	return &Comparison{Path: path, Op: op, Value: v.text}, nil
}
