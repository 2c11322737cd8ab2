package verilog

import (
	"fmt"
	"strconv"
	"strings"

	"gem5rtl/internal/hdl"
	"gem5rtl/internal/rtl"
)

// Parse scans and parses Verilog source into a design tree.
func Parse(src string) (*hdl.Design, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	d := &hdl.Design{}
	for !p.atEOF() {
		m, err := p.parseModule()
		if err != nil {
			return nil, err
		}
		d.Modules = append(d.Modules, m)
	}
	if len(d.Modules) == 0 {
		return nil, fmt.Errorf("verilog: no modules in source")
	}
	return d, nil
}

// Elaborate flattens the named top module of a parsed design into an
// rtl.Circuit (see hdl.Elaborate). overrides replaces top-level parameter
// values.
func Elaborate(d *hdl.Design, top string, overrides map[string]int64) (*rtl.Circuit, error) {
	c, err := hdl.Elaborate(d, top, overrides)
	if err != nil {
		return nil, fmt.Errorf("verilog: %w", err)
	}
	return c, nil
}

// Compile parses, elaborates and compiles source in one call — the
// equivalent of invoking Verilator on a file with a given top module.
func Compile(src, top string, overrides map[string]int64) (*rtl.Model, error) {
	d, err := Parse(src)
	if err != nil {
		return nil, err
	}
	m, err := hdl.Compile(d, top, overrides)
	if err != nil {
		return nil, fmt.Errorf("verilog: %w", err)
	}
	return m, nil
}

type parser struct {
	toks  []token
	pos   int
	depth int // expression and statement nesting (enter)
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

// enter counts one more level of nesting, refusing to go past
// hdl.MaxNesting; a caller that gets nil must call leave on its way out.
func (p *parser) enter() error {
	if p.depth++; p.depth > hdl.MaxNesting {
		return p.errf("nested deeper than %d levels", hdl.MaxNesting)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("verilog: line %d:%d: %s (at %q)", t.line, t.col,
		fmt.Sprintf(format, args...), t.text)
}

func (p *parser) isPunct(s string) bool {
	t := p.cur()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) isKw(s string) bool {
	t := p.cur()
	return t.kind == tokIdent && t.text == s
}

func (p *parser) acceptPunct(s string) bool {
	if p.isPunct(s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptKw(s string) bool {
	if p.isKw(s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

func (p *parser) expectKw(s string) error {
	if !p.acceptKw(s) {
		return p.errf("expected keyword %q", s)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier")
	}
	p.pos++
	return t.text, nil
}

// parseModule parses: module name [#(params)] (ports); items endmodule
func (p *parser) parseModule() (*hdl.Module, error) {
	if err := p.expectKw("module"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	m := &hdl.Module{Name: name}
	if p.acceptPunct("#") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for {
			p.acceptKw("parameter") // optional repeated keyword
			prm, err := p.parseParam(false)
			if err != nil {
				return nil, err
			}
			m.Params = append(m.Params, prm)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		// ANSI port declarations.
		var in, haveDir bool
		var rng *hdl.Range
		for {
			for {
				if p.acceptKw("input") {
					in = true
				} else if p.acceptKw("output") {
					in = false
				} else if p.isKw("inout") {
					return nil, p.errf("inout ports are not supported")
				} else {
					break
				}
				haveDir, rng = true, nil
				_ = p.acceptKw("reg") || p.acceptKw("logic") || p.acceptKw("wire")
				if p.isPunct("[") {
					if rng, err = p.parseRange(); err != nil {
						return nil, err
					}
				}
			}
			if !haveDir {
				return nil, p.errf("expected port direction")
			}
			line := p.cur().line
			pname, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			m.Ports = append(m.Ports, hdl.Port{Name: pname, In: in, Range: rng, Line: line})
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	var inits []hdl.Item
	for !p.acceptKw("endmodule") {
		if p.atEOF() {
			return nil, p.errf("unexpected EOF inside module %q", name)
		}
		if err := p.parseItem(m, &inits); err != nil {
			return nil, err
		}
	}
	// A wire's initialiser is a continuous assign, elaborated ahead of the
	// module's other items.
	m.Items = append(inits, m.Items...)
	return m, nil
}

// parseParam parses [integer] [range] name = value, after any keyword.
func (p *parser) parseParam(local bool) (hdl.Param, error) {
	p.acceptKw("integer")
	if p.isPunct("[") {
		if _, err := p.parseRange(); err != nil {
			return hdl.Param{}, err
		}
	}
	name, err := p.expectIdent()
	if err != nil {
		return hdl.Param{}, err
	}
	if err := p.expectPunct("="); err != nil {
		return hdl.Param{}, err
	}
	val, err := p.parseExpr()
	return hdl.Param{Name: name, Value: val, Local: local}, err
}

// parseRange parses [msb:lsb].
func (p *parser) parseRange() (*hdl.Range, error) {
	if err := p.expectPunct("["); err != nil {
		return nil, err
	}
	msb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	lsb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &hdl.Range{MSB: msb, LSB: lsb}, p.expectPunct("]")
}

// parseItem parses one module item into m; wire initialisers go to inits.
func (p *parser) parseItem(m *hdl.Module, inits *[]hdl.Item) error {
	line := p.cur().line
	switch {
	case p.isKw("wire") || p.isKw("reg") || p.isKw("logic") || p.isKw("integer"):
		return p.parseNetDecl(m, inits)
	case p.acceptKw("assign"):
		lhs, err := p.parsePostfix()
		if err != nil {
			return err
		}
		if err := p.expectPunct("="); err != nil {
			return err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return err
		}
		m.Items = append(m.Items, &hdl.Assign{LHS: lhs, RHS: rhs, Line: line})
		return p.expectPunct(";")
	case p.isKw("always") || p.isKw("always_ff") || p.isKw("always_comb"):
		pr, err := p.parseAlways()
		if err != nil {
			return err
		}
		m.Items = append(m.Items, pr)
	case p.isKw("parameter") || p.isKw("localparam"):
		prm, err := p.parseParam(p.next().text == "localparam")
		if err != nil {
			return err
		}
		m.Params = append(m.Params, prm)
		return p.expectPunct(";")
	case p.isKw("initial") || p.isKw("genvar") || p.isKw("generate"):
		return p.errf("%q blocks are not supported by the gem5rtl subset", p.cur().text)
	case p.cur().kind == tokIdent:
		inst, err := p.parseInstance()
		if err != nil {
			return err
		}
		m.Items = append(m.Items, inst)
	case !p.acceptPunct(";"):
		return p.errf("unexpected token at module level")
	}
	return nil
}

func (p *parser) parseNetDecl(m *hdl.Module, inits *[]hdl.Item) error {
	line := p.cur().line
	kw := p.next().text
	var rng *hdl.Range
	if kw == "integer" {
		rng = &hdl.Range{MSB: &hdl.Num{Val: 31}, LSB: &hdl.Num{}}
	}
	var err error
	if p.isPunct("[") {
		if rng, err = p.parseRange(); err != nil {
			return err
		}
	}
	for {
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		n := hdl.Net{Name: name, Range: rng, Line: line}
		if p.isPunct("[") {
			if n.Array, err = p.parseRange(); err != nil {
				return err
			}
		}
		if p.acceptPunct("=") {
			if n.Init, err = p.parseExpr(); err != nil {
				return err
			}
			if kw == "wire" {
				*inits = append(*inits, &hdl.Assign{LHS: &hdl.Ident{Name: name, Line: line}, RHS: n.Init, Line: line})
				n.Init = nil
			}
		}
		m.Nets = append(m.Nets, n)
		if !p.acceptPunct(",") {
			break
		}
	}
	return p.expectPunct(";")
}

// parseAlways parses an always block. A posedge/negedge term in the
// sensitivity list, or always_ff, makes it clocked; otherwise it is
// combinational, and its blocking reads see its own earlier assignments.
func (p *parser) parseAlways() (*hdl.Process, error) {
	kw := p.next().text
	clocked := kw == "always_ff"
	if kw != "always_comb" {
		if p.acceptPunct("@") {
			if p.acceptPunct("(") {
				if !p.acceptPunct("*") {
					for {
						if p.acceptKw("posedge") || p.acceptKw("negedge") {
							clocked = true
						}
						if _, err := p.expectIdent(); err != nil {
							return nil, err
						}
						if !p.acceptKw("or") && !p.acceptPunct(",") {
							break
						}
					}
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
			} else if !p.acceptPunct("*") {
				return nil, p.errf("expected sensitivity list after @")
			}
		} else if kw == "always" {
			return nil, p.errf("always without sensitivity list is not supported")
		}
	}
	body, err := p.parseStmtOrBlock()
	if err != nil {
		return nil, err
	}
	return &hdl.Process{Clocked: clocked, ReadsOwnWrites: !clocked, Body: body}, nil
}

// parseStmtOrBlock parses either a begin..end block or a single statement.
func (p *parser) parseStmtOrBlock() ([]hdl.Stmt, error) {
	if !p.acceptKw("begin") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return []hdl.Stmt{s}, nil
	}
	// optional block label
	if p.acceptPunct(":") {
		if _, err := p.expectIdent(); err != nil {
			return nil, err
		}
	}
	var stmts []hdl.Stmt
	for !p.acceptKw("end") {
		if p.atEOF() {
			return nil, p.errf("unexpected EOF in begin/end block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

func (p *parser) parseStmt() (hdl.Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	line := p.cur().line
	switch {
	case p.acceptPunct(";"):
		return &hdl.Null{}, nil
	case p.acceptKw("if"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		s := &hdl.If{Cond: cond}
		if s.Then, err = p.parseStmtOrBlock(); err != nil {
			return nil, err
		}
		if p.acceptKw("else") {
			if s.Else, err = p.parseStmtOrBlock(); err != nil {
				return nil, err
			}
		}
		return s, nil
	case p.isKw("case") || p.isKw("casez") || p.isKw("casex"):
		p.pos++
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		subj, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		cs := &hdl.Case{Subject: subj, Line: line}
		for !p.acceptKw("endcase") {
			if p.atEOF() {
				return nil, p.errf("unexpected EOF in case")
			}
			var arm hdl.Arm
			if p.acceptKw("default") {
				p.acceptPunct(":")
			} else {
				for {
					m, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					arm.Match = append(arm.Match, m)
					if !p.acceptPunct(",") {
						break
					}
				}
				if err := p.expectPunct(":"); err != nil {
					return nil, err
				}
			}
			if arm.Body, err = p.parseStmtOrBlock(); err != nil {
				return nil, err
			}
			cs.Arms = append(cs.Arms, arm)
		}
		return cs, nil
	case p.cur().kind == tokSysIdent:
		// $display and friends: parse and discard.
		p.pos++
		if p.acceptPunct("(") {
			for depth := 1; depth > 0; {
				if p.atEOF() {
					return nil, p.errf("unexpected EOF in system task")
				}
				switch t := p.next(); {
				case t.kind == tokPunct && t.text == "(":
					depth++
				case t.kind == tokPunct && t.text == ")":
					depth--
				}
			}
		}
		p.acceptPunct(";")
		return &hdl.Null{}, nil
	case p.isKw("for") || p.isKw("while") || p.isKw("repeat") || p.isKw("forever"):
		return nil, p.errf("procedural %q loops are not supported by the gem5rtl subset", p.cur().text)
	}
	// Blocking (=) and non-blocking (<=) assignments elaborate alike: which
	// values a read sees is the process's property.
	lhs, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	if !p.acceptPunct("<=") && !p.acceptPunct("=") {
		return nil, p.errf("expected assignment operator")
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &hdl.Assign{LHS: lhs, RHS: rhs, Line: line}, p.expectPunct(";")
}

func (p *parser) parseInstance() (*hdl.Instance, error) {
	line := p.cur().line
	modName, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	inst := &hdl.Instance{Module: modName, Line: line,
		Params: map[string]hdl.Expr{}, Conns: map[string]hdl.Expr{}}
	if p.acceptPunct("#") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if err := p.parseNamed(inst.Params); err != nil {
			return nil, err
		}
	}
	if inst.Name, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if !p.acceptPunct(")") {
		if err := p.parseNamed(inst.Conns); err != nil {
			return nil, err
		}
	}
	return inst, p.expectPunct(";")
}

// parseNamed parses .name(expr), ... ) into out; an empty .name() is nil.
func (p *parser) parseNamed(out map[string]hdl.Expr) error {
	for {
		if err := p.expectPunct("."); err != nil {
			return p.errf("only named connections are supported")
		}
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expectPunct("("); err != nil {
			return err
		}
		out[name] = nil
		if !p.isPunct(")") {
			if out[name], err = p.parseExpr(); err != nil {
				return err
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return err
		}
		if !p.acceptPunct(",") {
			return p.expectPunct(")")
		}
	}
}

// Expression parsing: precedence climbing. Verilog precedence, high to low:
// unary; ** ; * / %; + -; << >> >>>; < <= > >=; == !=; &; ^; |; &&; ||; ?:
var binPrec = map[string]int{
	"**": 11,
	"*":  10, "/": 10, "%": 10,
	"+": 9, "-": 9,
	"<<": 8, ">>": 8, ">>>": 8, "<<<": 8,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"==": 6, "!=": 6, "===": 6, "!==": 6,
	"&":  5,
	"^":  4,
	"|":  3,
	"&&": 2,
	"||": 1,
}

func (p *parser) parseExpr() (hdl.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	cond, err := p.parseBinary(1)
	if err != nil || !p.acceptPunct("?") {
		return cond, err
	}
	t, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	f, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &hdl.Cond{Cond: cond, T: t, F: f}, nil
}

func (p *parser) parseBinary(minPrec int) (hdl.Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokPunct {
			return lhs, nil
		}
		prec, ok := binPrec[t.text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.pos++
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &hdl.Binary{Op: t.text, X: lhs, Y: rhs, Line: t.line}
	}
}

func (p *parser) parseUnary() (hdl.Expr, error) {
	t := p.cur()
	if t.kind == tokPunct {
		switch t.text {
		case "~", "!", "-", "+", "&", "|", "^":
			p.pos++
			// handle ~| ~& ~^ reductions
			op := t.text
			if op == "~" && p.cur().kind == tokPunct {
				switch p.cur().text {
				case "|", "&", "^":
					op = "~" + p.cur().text
					p.pos++
				}
			}
			if err := p.enter(); err != nil {
				return nil, err
			}
			x, err := p.parseUnary()
			p.leave()
			if err != nil {
				return nil, err
			}
			if op == "+" {
				return x, nil
			}
			return &hdl.Unary{Op: op, X: x, Line: t.line}, nil
		}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (hdl.Expr, error) {
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.isPunct("[") {
		sel := &hdl.Select{Base: base, Line: p.next().line}
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.acceptPunct(":") {
			sel.MSB = first
			if sel.LSB, err = p.parseExpr(); err != nil {
				return nil, err
			}
		} else {
			sel.Index = first
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		base = sel
	}
	return base, nil
}

func (p *parser) parsePrimary() (hdl.Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.pos++
		return decodeNumber(t)
	case t.kind == tokIdent:
		p.pos++
		return &hdl.Ident{Name: t.text, Line: t.line}, nil
	case p.acceptPunct("("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectPunct(")")
	case p.acceptPunct("{"):
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		// {n{expr}} replication?
		if p.acceptPunct("{") {
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
			return &hdl.Repeat{Count: first, X: inner, Line: t.line}, p.expectPunct("}")
		}
		cat := &hdl.Concat{Parts: []hdl.Expr{first}}
		for p.acceptPunct(",") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			cat.Parts = append(cat.Parts, e)
		}
		return cat, p.expectPunct("}")
	}
	return nil, p.errf("expected expression")
}

// decodeNumber parses Verilog literal text into value and width.
func decodeNumber(t token) (hdl.Expr, error) {
	s := strings.ReplaceAll(t.text, "_", "")
	q := strings.IndexByte(s, '\'')
	if q < 0 {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("verilog: line %d: bad number %q", t.line, t.text)
		}
		return &hdl.Num{Val: v}, nil
	}
	width := 0
	if q > 0 {
		w, err := strconv.Atoi(s[:q])
		if err != nil || w < 1 || w > 64 {
			return nil, fmt.Errorf("verilog: line %d: bad literal size in %q (1..64 supported)", t.line, t.text)
		}
		width = w
	}
	rest := s[q+1:]
	if rest != "" && (rest[0] == 's' || rest[0] == 'S') {
		rest = rest[1:]
	}
	if rest == "" {
		return nil, fmt.Errorf("verilog: line %d: truncated literal %q", t.line, t.text)
	}
	base := 10
	switch rest[0] {
	case 'b', 'B':
		base = 2
	case 'o', 'O':
		base = 8
	case 'h', 'H':
		base = 16
	}
	// x/z bits are not supported in the two-state engine; they read as 0,
	// matching Verilator's default two-state conversion.
	digits := strings.Map(func(r rune) rune {
		if r == 'x' || r == 'X' || r == 'z' || r == 'Z' {
			return '0'
		}
		return r
	}, rest[1:])
	v, err := strconv.ParseUint(digits, base, 64)
	if err != nil {
		return nil, fmt.Errorf("verilog: line %d: bad literal %q", t.line, t.text)
	}
	return &hdl.Num{Val: v, Width: width}, nil
}
