package vhdl

import (
	"fmt"
	"strconv"

	"gem5rtl/internal/hdl"
)

// Parse scans and parses VHDL source into a design tree: one module per
// entity, holding its architecture's body.
func Parse(src string) (*hdl.Design, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	d := &hdl.Design{}
	for !p.atEOF() {
		switch {
		case p.isKw("library"), p.isKw("use"):
			// Skip context clauses up to the semicolon.
			for !p.atEOF() && !p.isPunct(";") {
				p.pos++
			}
			p.acceptPunct(";")
		case p.isKw("entity"):
			m, err := p.parseEntity()
			if err != nil {
				return nil, err
			}
			if d.Module(m.Name) != nil {
				return nil, fmt.Errorf("vhdl: duplicate entity %q", m.Name)
			}
			d.Modules = append(d.Modules, m)
		case p.isKw("architecture"):
			if err := p.parseArchitecture(d); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("expected entity, architecture, library or use")
		}
	}
	if len(d.Modules) == 0 {
		return nil, fmt.Errorf("vhdl: no entities in source")
	}
	return d, nil
}

type parser struct {
	toks    []token
	pos     int
	edges   int  // rising_edge/falling_edge calls parsed so far
	clocked bool // the process being parsed has a clock gate
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("vhdl: line %d: %s (at %q)", t.line, fmt.Sprintf(format, args...), t.text)
}

func (p *parser) isKw(s string) bool {
	return p.cur().kind == tokIdent && p.cur().text == s
}
func (p *parser) isPunct(s string) bool {
	return p.cur().kind == tokPunct && p.cur().text == s
}
func (p *parser) acceptKw(s string) bool {
	if p.isKw(s) {
		p.pos++
		return true
	}
	return false
}
func (p *parser) acceptPunct(s string) bool {
	if p.isPunct(s) {
		p.pos++
		return true
	}
	return false
}
func (p *parser) expectKw(s string) error {
	if !p.acceptKw(s) {
		return p.errf("expected %q", s)
	}
	return nil
}
func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q", s)
	}
	return nil
}
func (p *parser) expectIdent() (string, error) {
	if p.cur().kind != tokIdent {
		return "", p.errf("expected identifier")
	}
	s := p.cur().text
	p.pos++
	return s, nil
}

// parseNames parses name {, name} :
func (p *parser) parseNames() ([]string, error) {
	var names []string
	for {
		n, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		names = append(names, n)
		if !p.acceptPunct(",") {
			return names, p.expectPunct(":")
		}
	}
}

func (p *parser) parseEntity() (*hdl.Module, error) {
	if err := p.expectKw("entity"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("is"); err != nil {
		return nil, err
	}
	m := &hdl.Module{Name: name}
	if p.acceptKw("generic") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for {
			gname, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			if _, err := p.expectIdent(); err != nil { // type (integer etc.)
				return nil, err
			}
			g := hdl.Param{Name: gname}
			if p.acceptPunct(":=") {
				if g.Value, err = p.parseExpr(); err != nil {
					return nil, err
				}
			}
			m.Params = append(m.Params, g)
			if !p.acceptPunct(";") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("port") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for {
			line := p.cur().line
			names, err := p.parseNames()
			if err != nil {
				return nil, err
			}
			in := p.acceptKw("in")
			if !in && !p.acceptKw("out") && !p.acceptKw("buffer") {
				if p.isKw("inout") {
					return nil, p.errf("inout ports are not supported")
				}
				return nil, p.errf("expected port direction")
			}
			rng, err := p.parseType()
			if err != nil {
				return nil, err
			}
			for _, n := range names {
				m.Ports = append(m.Ports, hdl.Port{Name: n, In: in, Range: rng, Line: line})
			}
			if !p.acceptPunct(";") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	p.acceptKw("entity")
	if p.cur().kind == tokIdent {
		p.pos++
	}
	return m, p.expectPunct(";")
}

// parseType parses a type mark into its [msb:0] range, nil for one bit.
func (p *parser) parseType() (*hdl.Range, error) {
	t := p.cur()
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	switch name {
	case "std_logic", "std_ulogic", "bit", "boolean":
		return nil, nil
	case "integer", "natural", "positive":
		return &hdl.Range{MSB: &hdl.Num{Val: 31}, LSB: &hdl.Num{}}, nil
	case "std_logic_vector", "std_ulogic_vector", "unsigned", "signed", "bit_vector":
	default:
		return nil, fmt.Errorf("vhdl: line %d: unsupported type %q", t.line, name)
	}
	if !p.acceptPunct("(") {
		return nil, fmt.Errorf("vhdl: line %d: %s requires a (N downto 0) range", t.line, name)
	}
	msb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.acceptKw("downto") {
		return nil, p.errf("only (N downto 0) ranges are supported")
	}
	lsbTok := p.cur()
	lsb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if n, ok := lsb.(*hdl.Num); !ok || n.Val != 0 {
		return nil, fmt.Errorf("vhdl: line %d: only (N downto 0) ranges are supported", lsbTok.line)
	}
	return &hdl.Range{MSB: msb, LSB: lsb}, p.expectPunct(")")
}

func (p *parser) parseArchitecture(d *hdl.Design) error {
	if err := p.expectKw("architecture"); err != nil {
		return err
	}
	if _, err := p.expectIdent(); err != nil { // arch name
		return err
	}
	if err := p.expectKw("of"); err != nil {
		return err
	}
	ename, err := p.expectIdent()
	if err != nil {
		return err
	}
	m := d.Module(ename)
	if m == nil {
		return p.errf("architecture for unknown entity %q", ename)
	}
	if err := p.expectKw("is"); err != nil {
		return err
	}
	// Declarative part: signals and constants (components are ignored in
	// favour of direct entity instantiation).
	for !p.isKw("begin") {
		if p.atEOF() {
			return p.errf("unexpected EOF in architecture")
		}
		line := p.cur().line
		signal := p.acceptKw("signal")
		if !signal && !p.acceptKw("constant") {
			return p.errf("unsupported architecture declaration")
		}
		names, err := p.parseNames()
		if err != nil {
			return err
		}
		rng, err := p.parseType()
		if err != nil {
			return err
		}
		var init hdl.Expr
		if p.acceptPunct(":=") {
			if init, err = p.parseExpr(); err != nil {
				return err
			}
		} else if !signal {
			return p.errf("expected \":=\"")
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
		for _, n := range names {
			if signal {
				m.Nets = append(m.Nets, hdl.Net{Name: n, Range: rng, Init: init, Line: line})
			} else {
				m.Params = append(m.Params, hdl.Param{Name: n, Value: init, Local: true})
			}
		}
	}
	p.pos++ // begin
	for !p.isKw("end") {
		if p.atEOF() {
			return p.errf("unexpected EOF in architecture body")
		}
		it, err := p.parseConcurrent()
		if err != nil {
			return err
		}
		m.Items = append(m.Items, it)
	}
	p.pos++ // end
	p.acceptKw("architecture")
	if p.cur().kind == tokIdent {
		p.pos++
	}
	return p.expectPunct(";")
}

func (p *parser) parseConcurrent() (hdl.Item, error) {
	line := p.cur().line
	if p.isKw("process") {
		return p.parseProcess()
	}
	// Could be "label: process", "label: entity work.x ...", or an assignment.
	if p.cur().kind == tokIdent && p.toks[p.pos+1].kind == tokPunct && p.toks[p.pos+1].text == ":" {
		label := p.cur().text
		p.pos += 2
		if p.isKw("process") {
			return p.parseProcess()
		}
		if !p.acceptKw("entity") {
			return nil, p.errf("unsupported labelled concurrent statement")
		}
		if p.acceptKw("work") {
			if err := p.expectPunct("."); err != nil {
				return nil, err
			}
		}
		ename, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		inst := &hdl.Instance{Module: ename, Name: label, Line: line,
			Params: map[string]hdl.Expr{}, Conns: map[string]hdl.Expr{}}
		if err := p.parseMap("generic", inst.Params); err != nil {
			return nil, err
		}
		if err := p.parseMap("port", inst.Conns); err != nil {
			return nil, err
		}
		return inst, p.expectPunct(";")
	}
	// Concurrent (possibly conditional) signal assignment.
	target, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("<="); err != nil {
		return nil, err
	}
	rhs, err := p.parseWhenElse()
	if err != nil {
		return nil, err
	}
	return &hdl.Assign{LHS: target, RHS: rhs, Line: line}, p.expectPunct(";")
}

// parseWhenElse parses v [when c else ...] into a chain of conditionals.
func (p *parser) parseWhenElse() (hdl.Expr, error) {
	v, err := p.parseExpr()
	if err != nil || !p.acceptKw("when") {
		return v, err
	}
	c, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("else"); err != nil {
		return nil, err
	}
	f, err := p.parseWhenElse()
	if err != nil {
		return nil, err
	}
	return &hdl.Cond{Cond: c, T: v, F: f}, nil
}

// parseMap parses an optional "kw map (name => expr | open, ...)" clause
// into out; open is nil.
func (p *parser) parseMap(kw string, out map[string]hdl.Expr) error {
	if !p.acceptKw(kw) {
		return nil
	}
	if err := p.expectKw("map"); err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	for {
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expectPunct("=>"); err != nil {
			return err
		}
		out[name] = nil
		if !p.acceptKw("open") {
			if out[name], err = p.parseExpr(); err != nil {
				return err
			}
		}
		if !p.acceptPunct(",") {
			return p.expectPunct(")")
		}
	}
}

func (p *parser) parseProcess() (hdl.Item, error) {
	if err := p.expectKw("process"); err != nil {
		return nil, err
	}
	if p.acceptPunct("(") {
		for !p.acceptPunct(")") {
			if p.atEOF() {
				return nil, p.errf("unterminated sensitivity list")
			}
			p.pos++
		}
	}
	p.acceptKw("is")
	if p.isKw("variable") {
		return nil, p.errf("process variables are not supported")
	}
	if err := p.expectKw("begin"); err != nil {
		return nil, err
	}
	p.clocked = false
	body, err := p.parseStmts()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	if err := p.expectKw("process"); err != nil {
		return nil, err
	}
	if p.cur().kind == tokIdent {
		p.pos++
	}
	return &hdl.Process{Clocked: p.clocked, Body: body}, p.expectPunct(";")
}

// parseStmts parses statements until end/elsif/else/when.
func (p *parser) parseStmts() ([]hdl.Stmt, error) {
	var out []hdl.Stmt
	for !p.isKw("end") && !p.isKw("elsif") && !p.isKw("else") && !p.isKw("when") && !p.atEOF() {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s...)
	}
	return out, nil
}

// parseStmt parses one statement; a clock-gated if yields its branch's
// statements.
func (p *parser) parseStmt() ([]hdl.Stmt, error) {
	line := p.cur().line
	switch {
	case p.acceptKw("null"):
		return []hdl.Stmt{&hdl.Null{}}, p.expectPunct(";")
	case p.acceptKw("if"):
		s, err := p.parseIf()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("end"); err != nil {
			return nil, err
		}
		if err := p.expectKw("if"); err != nil {
			return nil, err
		}
		return s, p.expectPunct(";")
	case p.acceptKw("case"):
		subj, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("is"); err != nil {
			return nil, err
		}
		cs := &hdl.Case{Subject: subj, Line: line}
		for p.acceptKw("when") {
			var arm hdl.Arm
			if !p.acceptKw("others") {
				for {
					ch, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					arm.Match = append(arm.Match, ch)
					if !p.acceptPunct("|") {
						break
					}
				}
			}
			if err := p.expectPunct("=>"); err != nil {
				return nil, err
			}
			if arm.Body, err = p.parseStmts(); err != nil {
				return nil, err
			}
			cs.Arms = append(cs.Arms, arm)
		}
		if err := p.expectKw("end"); err != nil {
			return nil, err
		}
		if err := p.expectKw("case"); err != nil {
			return nil, err
		}
		return []hdl.Stmt{cs}, p.expectPunct(";")
	case p.isKw("for") || p.isKw("while") || p.isKw("loop"):
		return nil, p.errf("loops are not supported by the gem5rtl VHDL subset")
	}
	target, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("<="); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return []hdl.Stmt{&hdl.Assign{LHS: target, RHS: rhs, Line: line}}, p.expectPunct(";")
}

// parseIf parses the rest of an if (or elsif) up to its end if. A condition
// that tests a clock edge is the clock gate: every Tick of the engine's
// single clock is a posedge, so its branch is kept without the test, any
// branch after it is dropped, and the process is clocked.
func (p *parser) parseIf() ([]hdl.Stmt, error) {
	edges := p.edges
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	gate := p.edges != edges
	if err := p.expectKw("then"); err != nil {
		return nil, err
	}
	then, err := p.parseStmts()
	if err != nil {
		return nil, err
	}
	var els []hdl.Stmt
	if p.acceptKw("elsif") {
		els, err = p.parseIf()
	} else if p.acceptKw("else") {
		els, err = p.parseStmts()
	}
	if err != nil {
		return nil, err
	}
	if gate {
		p.clocked = true
		return then, nil
	}
	return []hdl.Stmt{&hdl.If{Cond: cond, Then: then, Else: els}}, nil
}

// ---------------------------------------------------------------------------
// Expression parsing. VHDL precedence (low to high): logical (and/or/...),
// relational, shift, adding, multiplying, unary (not, -).

// binOps respells VHDL's binary operators in the design tree's vocabulary;
// a leading ~ negates the result.
var binOps = map[string]string{
	"and": "&", "or": "|", "xor": "^", "nand": "~&", "nor": "~|", "xnor": "~^",
	"=": "==", "/=": "!=", "mod": "%", "rem": "%", "sll": "<<", "srl": ">>", "sra": ">>>",
}

// binary builds x op y; & is concatenation.
func binary(op string, x, y hdl.Expr, line int) hdl.Expr {
	if op == "&" {
		return &hdl.Concat{Parts: []hdl.Expr{x, y}}
	}
	if s, ok := binOps[op]; ok {
		op = s
	}
	if op[0] == '~' {
		return &hdl.Unary{Op: "~", X: &hdl.Binary{Op: op[1:], X: x, Y: y, Line: line}, Line: line}
	}
	return &hdl.Binary{Op: op, X: x, Y: y, Line: line}
}

// levels lists each binary precedence level's operators, loosest first;
// relational operators do not associate.
var levels = []map[string]bool{
	{"and": true, "or": true, "xor": true, "nand": true, "nor": true, "xnor": true},
	{"=": true, "/=": true, "<": true, "<=": true, ">": true, ">=": true},
	{"sll": true, "srl": true, "sra": true},
	{"+": true, "-": true, "&": true},
	{"*": true, "/": true, "mod": true, "rem": true},
}

func (p *parser) parseExpr() (hdl.Expr, error) { return p.parseLevel(0) }

func (p *parser) parseLevel(n int) (hdl.Expr, error) {
	if n == len(levels) {
		return p.parseUnary()
	}
	lhs, err := p.parseLevel(n + 1)
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if (t.kind != tokIdent && t.kind != tokPunct) || !levels[n][t.text] {
			return lhs, nil
		}
		p.pos++
		rhs, err := p.parseLevel(n + 1)
		if err != nil {
			return nil, err
		}
		lhs = binary(t.text, lhs, rhs, t.line)
		if n == 1 {
			return lhs, nil
		}
	}
}

func (p *parser) parseUnary() (hdl.Expr, error) {
	t := p.cur()
	if (t.kind == tokIdent && t.text == "not") || (t.kind == tokPunct && t.text == "-") {
		p.pos++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		op := "-"
		if t.text == "not" {
			op = "~"
		}
		return &hdl.Unary{Op: op, X: x, Line: t.line}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (hdl.Expr, error) {
	t := p.cur()
	p.pos++
	switch t.kind {
	case tokNumber:
		v, err := strconv.ParseUint(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("vhdl: line %d: bad number %q", t.line, t.text)
		}
		return &hdl.Num{Val: v}, nil
	case tokChar:
		// 'X', 'Z', 'U' etc. collapse to 0 in the two-state engine.
		if t.text == "1" {
			return &hdl.Num{Val: 1, Width: 1}, nil
		}
		return &hdl.Num{Width: 1}, nil
	case tokBits:
		if len(t.text) == 0 || len(t.text) > 64 {
			return nil, fmt.Errorf("vhdl: line %d: bit string length %d unsupported", t.line, len(t.text))
		}
		var v uint64
		for _, c := range t.text {
			v <<= 1
			if c == '1' {
				v |= 1
			}
		}
		return &hdl.Num{Val: v, Width: len(t.text)}, nil
	case tokHex:
		v, err := strconv.ParseUint(t.text, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("vhdl: line %d: bad hex literal %q", t.line, t.text)
		}
		return &hdl.Num{Val: v, Width: 4 * len(t.text)}, nil
	case tokIdent:
		if p.acceptPunct("(") {
			return p.parseCall(t)
		}
		switch t.text {
		case "true":
			return &hdl.Num{Val: 1, Width: 1}, nil
		case "false":
			return &hdl.Num{Width: 1}, nil
		}
		return &hdl.Ident{Name: t.text, Line: t.line}, nil
	case tokPunct:
		if t.text != "(" {
			break
		}
		// (others => '0') aggregate?
		if p.acceptKw("others") {
			if err := p.expectPunct("=>"); err != nil {
				return nil, err
			}
			bit := p.cur()
			if bit.kind != tokChar {
				return nil, p.errf("expected '0' or '1' in others aggregate")
			}
			p.pos++
			return &hdl.Fill{One: bit.text == "1", Line: t.line}, p.expectPunct(")")
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectPunct(")")
	}
	p.pos--
	return nil, p.errf("expected expression")
}

// arity is the argument count of each function the subset knows; any other
// name(arg) indexes a signal.
var arity = map[string]int{
	"std_logic_vector": 1, "std_ulogic_vector": 1, "unsigned": 1, "signed": 1, "to_integer": 1,
	"resize": 2, "to_unsigned": 2, "to_signed": 2, "shift_left": 2, "shift_right": 2,
	"rising_edge": 1, "falling_edge": 1,
}

// parseCall parses the rest of name(...): a slice, a function call or an
// index, lowered into the design tree.
func (p *parser) parseCall(name token) (hdl.Expr, error) {
	var args []hdl.Expr
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.acceptKw("downto") {
			lsb, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &hdl.Select{Base: &hdl.Ident{Name: name.text, Line: name.line}, MSB: a, LSB: lsb, Line: name.line},
				p.expectPunct(")")
		}
		args = append(args, a)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	want, known := arity[name.text]
	if !known {
		want = 1
	}
	if len(args) != want {
		return nil, fmt.Errorf("vhdl: line %d: %s takes %d argument(s), not %d", name.line, name.text, want, len(args))
	}
	switch name.text {
	case "std_logic_vector", "std_ulogic_vector", "unsigned", "signed":
		return args[0], nil // width-preserving over two-state vectors
	case "to_integer":
		return &hdl.Width{X: args[0], W: &hdl.Num{Val: 32}, Line: name.line}, nil
	case "resize", "to_unsigned", "to_signed":
		return &hdl.Width{X: args[0], W: args[1], Line: name.line}, nil
	case "shift_left":
		return &hdl.Binary{Op: "<<", X: args[0], Y: args[1], Line: name.line}, nil
	case "shift_right":
		return &hdl.Binary{Op: ">>", X: args[0], Y: args[1], Line: name.line}, nil
	case "rising_edge", "falling_edge":
		// Outside a clock gate's test: every Tick is a posedge.
		p.edges++
		if name.text == "rising_edge" {
			return &hdl.Num{Val: 1, Width: 1}, nil
		}
		return &hdl.Num{Width: 1}, nil
	}
	return &hdl.Select{Base: &hdl.Ident{Name: name.text, Line: name.line}, Index: args[0], Line: name.line}, nil
}
