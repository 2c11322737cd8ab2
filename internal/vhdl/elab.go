package vhdl

import (
	"fmt"
	"sort"
	"strings"

	"gem5rtl/internal/rtl"
	"gem5rtl/internal/rtlc"
)

// Elaborate flattens the named top entity into an rtl.Circuit. Generic
// overrides replace entity generic defaults. Clocked processes (detected via
// rising_edge) become sequential logic on the engine's implicit clock; the
// async-reset idiom is approximated synchronously, matching the engine's
// single-clock two-state semantics.
func Elaborate(d *Design, top string, overrides map[string]int64) (*rtl.Circuit, error) {
	ent := d.EntityByName(top)
	if ent == nil {
		return nil, fmt.Errorf("vhdl: no entity %q in design", top)
	}
	e := &elab{d: d, b: rtl.NewBuilder(strings.ToLower(top))}
	sc, err := e.declare(ent, "", overrides, true)
	if err != nil {
		return nil, err
	}
	if err := e.elabConcs(sc); err != nil {
		return nil, err
	}
	c, err := e.b.Build()
	if err != nil {
		return nil, fmt.Errorf("vhdl: %s: %w", top, err)
	}
	return c, nil
}

// Compile parses, elaborates and compiles VHDL source in one call — the
// equivalent of the paper's GHDL flow producing a tickable model.
func Compile(src, top string, overrides map[string]int64) (*rtl.Model, error) {
	d, err := Parse(src)
	if err != nil {
		return nil, err
	}
	c, err := Elaborate(d, top, overrides)
	if err != nil {
		return nil, err
	}
	m, err := rtlc.NewModel(c)
	if err != nil {
		if strings.Contains(err.Error(), "combinational loop") {
			return nil, fmt.Errorf("vhdl: %w (a combinational process may leave a target unassigned on some path — inferred latch)", err)
		}
		return nil, err
	}
	return m, nil
}

type sigInfo struct {
	id    rtl.SigID
	width int
}

type scope struct {
	ent      *Entity
	prefix   string
	generics map[string]int64
	sigs     map[string]sigInfo
}

type elab struct {
	d *Design
	b *rtl.Builder
}

func (e *elab) declare(ent *Entity, prefix string, overrides map[string]int64, isTop bool) (*scope, error) {
	sc := &scope{ent: ent, prefix: prefix, generics: map[string]int64{}, sigs: map[string]sigInfo{}}
	for _, g := range ent.Generics {
		if g.def != nil {
			v, err := e.evalConst(g.def, sc)
			if err != nil {
				return nil, err
			}
			sc.generics[g.name] = v
		}
	}
	for name, v := range overrides {
		sc.generics[strings.ToLower(name)] = v
	}
	// Which signals are driven from clocked processes?
	seqDriven := map[string]bool{}
	for _, c := range ent.Concs {
		if pr, ok := c.(*process); ok && pr.seq {
			collectTargets(pr.body, seqDriven)
		}
	}
	for _, p := range ent.Ports {
		w, err := e.typeWidth(p.typ, sc)
		if err != nil {
			return nil, err
		}
		full := prefix + p.name
		var id rtl.SigID
		switch {
		case p.isIn && isTop:
			id = e.b.Input(full, w)
		case p.isIn:
			id = e.b.Wire(full, w)
		case isTop:
			id = e.b.Output(full, w)
		case seqDriven[p.name]:
			id = e.b.Reg(full, w, 0)
		default:
			id = e.b.Wire(full, w)
		}
		sc.sigs[p.name] = sigInfo{id, w}
	}
	for _, s := range ent.Signals {
		w, err := e.typeWidth(s.typ, sc)
		if err != nil {
			return nil, err
		}
		full := prefix + s.name
		var id rtl.SigID
		if seqDriven[s.name] {
			init := uint64(0)
			if s.init != nil {
				iv, err := e.constValue(s.init, sc, w)
				if err != nil {
					return nil, fmt.Errorf("vhdl: line %d: signal initialiser must be constant: %w", s.line, err)
				}
				init = iv
			}
			id = e.b.Reg(full, w, init)
		} else {
			id = e.b.Wire(full, w)
		}
		sc.sigs[s.name] = sigInfo{id, w}
	}
	return sc, nil
}

func collectTargets(stmts []stmtNode, out map[string]bool) {
	for _, s := range stmts {
		switch v := s.(type) {
		case *sigAssign:
			out[v.target.name] = true
		case *ifNode:
			collectTargets(v.then, out)
			collectTargets(v.els, out)
		case *caseNode:
			for _, a := range v.arms {
				collectTargets(a.body, out)
			}
		}
	}
}

func (e *elab) typeWidth(t typeRef, sc *scope) (int, error) {
	switch t.name {
	case "std_logic", "std_ulogic", "bit", "boolean":
		return 1, nil
	case "integer", "natural", "positive":
		return 32, nil
	case "std_logic_vector", "std_ulogic_vector", "unsigned", "signed", "bit_vector":
		if t.msb == nil {
			return 0, fmt.Errorf("vhdl: line %d: %s requires a (N downto 0) range", t.line, t.name)
		}
		hi, err := e.evalConst(t.msb, sc)
		if err != nil {
			return 0, err
		}
		w := int(hi) + 1
		if w < 1 || w > 64 {
			return 0, fmt.Errorf("vhdl: line %d: width %d out of supported range [1,64]", t.line, w)
		}
		return w, nil
	}
	return 0, fmt.Errorf("vhdl: line %d: unsupported type %q", t.line, t.name)
}

func (e *elab) elabConcs(sc *scope) error {
	for _, c := range sc.ent.Concs {
		switch v := c.(type) {
		case *concAssign:
			if err := e.elabConcAssign(v, sc); err != nil {
				return err
			}
		case *process:
			if err := e.elabProcess(v, sc); err != nil {
				return err
			}
		case *instance:
			if err := e.elabInstance(v, sc); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *elab) elabConcAssign(ca *concAssign, sc *scope) error {
	si, ok := sc.sigs[ca.target.name]
	if !ok {
		return fmt.Errorf("vhdl: line %d: assignment to undeclared signal %q", ca.line, ca.target.name)
	}
	if ca.target.index != nil || ca.target.msb != nil {
		return fmt.Errorf("vhdl: line %d: concurrent assignment to a slice of %q is not supported", ca.line, ca.target.name)
	}
	// Fold when/else arms from the unconditional tail backwards.
	val, err := e.elabExprW(ca.vals[len(ca.vals)-1], sc, si.width)
	if err != nil {
		return err
	}
	for i := len(ca.conds) - 1; i >= 0; i-- {
		cond, err := e.elabExpr(ca.conds[i], sc)
		if err != nil {
			return err
		}
		arm, err := e.elabExprW(ca.vals[i], sc, si.width)
		if err != nil {
			return err
		}
		val = rtl.MuxE(cond, arm, val)
	}
	e.b.Assign(si.id, rtl.Resize(val, si.width))
	return nil
}

func (e *elab) elabProcess(pr *process, sc *scope) error {
	env := map[string]rtl.Expr{}
	if err := e.walkStmts(pr.body, sc, env); err != nil {
		return err
	}
	// Sorted emission keeps the circuit's Seqs/Combs layout stable across
	// compiles of the same source (map order would scramble fault-injection
	// picks, checkpoint layout and VCD signal order).
	targets := make([]string, 0, len(env))
	for name := range env {
		targets = append(targets, name)
	}
	sort.Strings(targets)
	for _, name := range targets {
		si := sc.sigs[name]
		if pr.seq {
			e.b.Seq(si.id, rtl.Resize(env[name], si.width))
		} else {
			e.b.Assign(si.id, rtl.Resize(env[name], si.width))
		}
	}
	return nil
}

// walkStmts synthesises process statements into per-target expressions using
// the same copy-and-merge scheme as the Verilog frontend. rising_edge
// conditions evaluate as constant true (every engine Tick is a posedge).
func (e *elab) walkStmts(stmts []stmtNode, sc *scope, env map[string]rtl.Expr) error {
	for _, s := range stmts {
		switch v := s.(type) {
		case *nullNode:
		case *sigAssign:
			if err := e.walkAssign(v, sc, env); err != nil {
				return err
			}
		case *ifNode:
			if exprHasRisingEdge(v.cond) {
				// Clock gate: body executes on every tick; an else branch
				// (unusual) is ignored, matching falling-edge exclusion.
				if err := e.walkStmts(v.then, sc, env); err != nil {
					return err
				}
				continue
			}
			cond, err := e.elabExpr(v.cond, sc)
			if err != nil {
				return err
			}
			envT := cloneEnv(env)
			envE := cloneEnv(env)
			if err := e.walkStmts(v.then, sc, envT); err != nil {
				return err
			}
			if err := e.walkStmts(v.els, sc, envE); err != nil {
				return err
			}
			e.mergeEnv(env, cond, envT, envE, sc)
		case *caseNode:
			subj, err := e.elabExpr(v.subject, sc)
			if err != nil {
				return err
			}
			// Desugar to a priority chain, others last.
			var othersBody []stmtNode
			type armC struct {
				cond rtl.Expr
				body []stmtNode
			}
			var arms []armC
			for _, a := range v.arms {
				if len(a.choices) == 0 {
					othersBody = a.body
					continue
				}
				var cond rtl.Expr
				for _, ch := range a.choices {
					cv, err := e.elabExprW(ch, sc, subj.Width())
					if err != nil {
						return err
					}
					eq := rtl.Eq(subj, rtl.Resize(cv, subj.Width()))
					if cond == nil {
						cond = eq
					} else {
						cond = rtl.LOr(cond, eq)
					}
				}
				arms = append(arms, armC{cond, a.body})
			}
			// Build nested merge from the last arm backwards.
			walkChain := func(idx int) error { return nil }
			var rec func(idx int, env map[string]rtl.Expr) error
			rec = func(idx int, env map[string]rtl.Expr) error {
				if idx == len(arms) {
					return e.walkStmts(othersBody, sc, env)
				}
				envT := cloneEnv(env)
				envE := cloneEnv(env)
				if err := e.walkStmts(arms[idx].body, sc, envT); err != nil {
					return err
				}
				if err := rec(idx+1, envE); err != nil {
					return err
				}
				e.mergeEnv(env, arms[idx].cond, envT, envE, sc)
				return nil
			}
			_ = walkChain
			if err := rec(0, env); err != nil {
				return err
			}
		default:
			return fmt.Errorf("vhdl: unsupported statement %T", s)
		}
	}
	return nil
}

func (e *elab) walkAssign(v *sigAssign, sc *scope, env map[string]rtl.Expr) error {
	si, ok := sc.sigs[v.target.name]
	if !ok {
		return fmt.Errorf("vhdl: line %d: assignment to undeclared signal %q", v.line, v.target.name)
	}
	rhs, err := e.elabExprW(v.rhs, sc, si.width)
	if err != nil {
		return err
	}
	cur, have := env[v.target.name]
	if !have {
		cur = e.b.Ref(si.id)
	}
	var newVal rtl.Expr
	switch {
	case v.target.index == nil && v.target.msb == nil:
		newVal = rtl.Resize(rhs, si.width)
	case v.target.msb != nil:
		hi, err := e.evalConst(v.target.msb, sc)
		if err != nil {
			return fmt.Errorf("vhdl: line %d: slice bounds must be constant: %w", v.line, err)
		}
		lo, err := e.evalConst(v.target.lsb, sc)
		if err != nil {
			return fmt.Errorf("vhdl: line %d: slice bounds must be constant: %w", v.line, err)
		}
		if lo > hi || int(hi) >= si.width {
			return fmt.Errorf("vhdl: line %d: slice (%d downto %d) out of range for %q", v.line, hi, lo, v.target.name)
		}
		newVal = spliceBits(cur, rtl.Resize(rhs, int(hi-lo)+1), int(hi), int(lo), si.width)
	default:
		bit, err := e.evalConst(v.target.index, sc)
		if err != nil {
			return fmt.Errorf("vhdl: line %d: index must be constant in assignments: %w", v.line, err)
		}
		if int(bit) >= si.width {
			return fmt.Errorf("vhdl: line %d: index %d out of range for %q", v.line, bit, v.target.name)
		}
		newVal = spliceBits(cur, rtl.Resize(rhs, 1), int(bit), int(bit), si.width)
	}
	env[v.target.name] = newVal
	return nil
}

func spliceBits(cur, repl rtl.Expr, hi, lo, w int) rtl.Expr {
	parts := make([]rtl.Expr, 0, 3)
	if hi < w-1 {
		parts = append(parts, rtl.SliceE(cur, w-1, hi+1))
	}
	parts = append(parts, repl)
	if lo > 0 {
		parts = append(parts, rtl.SliceE(cur, lo-1, 0))
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return rtl.Cat(parts...)
}

func cloneEnv(env map[string]rtl.Expr) map[string]rtl.Expr {
	out := make(map[string]rtl.Expr, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

func (e *elab) mergeEnv(env map[string]rtl.Expr, cond rtl.Expr, envT, envE map[string]rtl.Expr, sc *scope) {
	keys := map[string]bool{}
	for k := range envT {
		keys[k] = true
	}
	for k := range envE {
		keys[k] = true
	}
	for k := range keys {
		base, ok := env[k]
		if !ok {
			base = e.b.Ref(sc.sigs[k].id)
		}
		tv, tok := envT[k]
		if !tok {
			tv = base
		}
		ev, eok := envE[k]
		if !eok {
			ev = base
		}
		if tv == ev {
			env[k] = tv
			continue
		}
		w := tv.Width()
		if ev.Width() > w {
			w = ev.Width()
		}
		env[k] = rtl.MuxE(cond, rtl.Resize(tv, w), rtl.Resize(ev, w))
	}
}

func (e *elab) elabInstance(inst *instance, sc *scope) error {
	child := e.d.EntityByName(inst.entity)
	if child == nil {
		return fmt.Errorf("vhdl: line %d: unknown entity %q", inst.line, inst.entity)
	}
	overrides := map[string]int64{}
	for name, ge := range inst.generics {
		v, err := e.evalConst(ge, sc)
		if err != nil {
			return fmt.Errorf("vhdl: line %d: generic %q must be constant: %w", inst.line, name, err)
		}
		overrides[name] = v
	}
	childScope, err := e.declare(child, sc.prefix+inst.label+".", overrides, false)
	if err != nil {
		return err
	}
	if err := e.elabConcs(childScope); err != nil {
		return err
	}
	for _, p := range child.Ports {
		conn, given := inst.ports[p.name]
		csi := childScope.sigs[p.name]
		if p.isIn {
			if !given || conn == nil {
				e.b.Assign(csi.id, rtl.C(0, csi.width))
				continue
			}
			pe, err := e.elabExprW(conn, sc, csi.width)
			if err != nil {
				return err
			}
			e.b.Assign(csi.id, rtl.Resize(pe, csi.width))
		} else {
			if !given || conn == nil {
				continue
			}
			id, ok := conn.(*identRef)
			if !ok {
				return fmt.Errorf("vhdl: line %d: output port %s.%s must map to a simple signal", inst.line, inst.label, p.name)
			}
			psi, ok := sc.sigs[id.name]
			if !ok {
				return fmt.Errorf("vhdl: line %d: port map to undeclared signal %q", inst.line, id.name)
			}
			e.b.Assign(psi.id, rtl.Resize(e.b.Ref(csi.id), psi.width))
		}
	}
	for name := range inst.ports {
		found := false
		for _, p := range child.Ports {
			if p.name == name {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("vhdl: line %d: entity %s has no port %q", inst.line, inst.entity, name)
		}
	}
	return nil
}

// evalConst evaluates constant expressions (generics, literals, arithmetic).
func (e *elab) evalConst(x expr, sc *scope) (int64, error) {
	switch v := x.(type) {
	case *numLit:
		return int64(v.val), nil
	case *identRef:
		if g, ok := sc.generics[v.name]; ok {
			return g, nil
		}
		return 0, fmt.Errorf("line %d: %q is not a generic/constant", v.line, v.name)
	case *unaryE:
		xv, err := e.evalConst(v.x, sc)
		if err != nil {
			return 0, err
		}
		switch v.op {
		case "-":
			return -xv, nil
		case "not":
			return ^xv, nil
		}
	case *binE:
		a, err := e.evalConst(v.x, sc)
		if err != nil {
			return 0, err
		}
		b, err := e.evalConst(v.y, sc)
		if err != nil {
			return 0, err
		}
		switch v.op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "/":
			if b == 0 {
				return 0, fmt.Errorf("line %d: constant division by zero", v.line)
			}
			return a / b, nil
		case "mod", "rem":
			if b == 0 {
				return 0, fmt.Errorf("line %d: constant modulo by zero", v.line)
			}
			return a % b, nil
		}
	}
	return 0, fmt.Errorf("non-constant expression %T", x)
}

// constValue evaluates a constant initialiser, resolving others-aggregates
// against the declared width.
func (e *elab) constValue(x expr, sc *scope, width int) (uint64, error) {
	if o, ok := x.(*othersE); ok {
		if o.bit == '1' {
			return rtl.Mask(width), nil
		}
		return 0, nil
	}
	v, err := e.evalConst(x, sc)
	if err != nil {
		return 0, err
	}
	return uint64(v) & rtl.Mask(width), nil
}

// elabExprW elaborates an expression in a context expecting the given width,
// which resolves others-aggregates.
func (e *elab) elabExprW(x expr, sc *scope, width int) (rtl.Expr, error) {
	if o, ok := x.(*othersE); ok {
		if o.bit == '1' {
			return rtl.C(rtl.Mask(width), width), nil
		}
		return rtl.C(0, width), nil
	}
	return e.elabExpr(x, sc)
}

func (e *elab) elabExpr(x expr, sc *scope) (rtl.Expr, error) {
	switch v := x.(type) {
	case *numLit:
		w := v.w
		if w == 0 {
			w = 32
			if v.val > 0xFFFFFFFF {
				w = 64
			}
		}
		return rtl.C(v.val, w), nil
	case *identRef:
		if g, ok := sc.generics[v.name]; ok {
			return rtl.C(uint64(g), 32), nil
		}
		if si, ok := sc.sigs[v.name]; ok {
			return e.b.Ref(si.id), nil
		}
		// true/false literals
		if v.name == "true" {
			return rtl.C(1, 1), nil
		}
		if v.name == "false" {
			return rtl.C(0, 1), nil
		}
		return nil, fmt.Errorf("vhdl: line %d: undeclared identifier %q", v.line, v.name)
	case *othersE:
		return nil, fmt.Errorf("vhdl: line %d: (others => ...) is only supported as a direct assignment source", v.line)
	case *selectE:
		base, err := e.elabExpr(v.base, sc)
		if err != nil {
			return nil, err
		}
		hi, err := e.evalConst(v.msb, sc)
		if err != nil {
			return nil, fmt.Errorf("vhdl: line %d: slice bounds must be constant: %w", v.line, err)
		}
		lo, err := e.evalConst(v.lsb, sc)
		if err != nil {
			return nil, fmt.Errorf("vhdl: line %d: slice bounds must be constant: %w", v.line, err)
		}
		if lo > hi || int(hi) >= base.Width() {
			return nil, fmt.Errorf("vhdl: line %d: slice (%d downto %d) out of range (width %d)", v.line, hi, lo, base.Width())
		}
		return rtl.SliceE(base, int(hi), int(lo)), nil
	case *unaryE:
		xe, err := e.elabExpr(v.x, sc)
		if err != nil {
			return nil, err
		}
		switch v.op {
		case "not":
			return rtl.Not(xe), nil
		case "-":
			return rtl.Neg(xe), nil
		}
		return nil, fmt.Errorf("vhdl: line %d: unsupported unary %q", v.line, v.op)
	case *binE:
		xe, err := e.elabExpr(v.x, sc)
		if err != nil {
			return nil, err
		}
		ye, err := e.elabExpr(v.y, sc)
		if err != nil {
			return nil, err
		}
		switch v.op {
		case "and":
			return rtl.AndE(xe, ye), nil
		case "or":
			return rtl.OrE(xe, ye), nil
		case "xor":
			return rtl.XorE(xe, ye), nil
		case "nand":
			return rtl.Not(rtl.AndE(xe, ye)), nil
		case "nor":
			return rtl.Not(rtl.OrE(xe, ye)), nil
		case "xnor":
			return rtl.Not(rtl.XorE(xe, ye)), nil
		case "=":
			return rtl.Eq(xe, ye), nil
		case "/=":
			return rtl.Ne(xe, ye), nil
		case "<":
			return rtl.Lt(xe, ye), nil
		case "<=":
			return rtl.Le(xe, ye), nil
		case ">":
			return rtl.Gt(xe, ye), nil
		case ">=":
			return rtl.Ge(xe, ye), nil
		case "+":
			return rtl.Add(xe, ye), nil
		case "-":
			return rtl.Sub(xe, ye), nil
		case "*":
			return rtl.MulE(xe, ye), nil
		case "/":
			return rtl.DivE(xe, ye), nil
		case "mod", "rem":
			return rtl.ModE(xe, ye), nil
		case "sll":
			return rtl.Shl(xe, ye), nil
		case "srl":
			return rtl.Shr(xe, ye), nil
		case "sra":
			return rtl.Sra(xe, ye), nil
		case "&":
			return rtl.Cat(xe, ye), nil
		}
		return nil, fmt.Errorf("vhdl: line %d: unsupported operator %q", v.line, v.op)
	case *callExpr:
		return e.elabCall(v, sc)
	}
	return nil, fmt.Errorf("vhdl: unsupported expression %T", x)
}

// elabCall handles both function-style casts and signal indexing, which are
// syntactically identical in VHDL (name(arg)).
func (e *elab) elabCall(v *callExpr, sc *scope) (rtl.Expr, error) {
	// Signal indexing: sig(i).
	if si, ok := sc.sigs[v.fn]; ok {
		if len(v.args) != 1 {
			return nil, fmt.Errorf("vhdl: line %d: bad index of signal %q", v.line, v.fn)
		}
		if c, err := e.evalConst(v.args[0], sc); err == nil {
			if int(c) >= si.width {
				return nil, fmt.Errorf("vhdl: line %d: index %d out of range for %q", v.line, c, v.fn)
			}
			return rtl.Bit(e.b.Ref(si.id), int(c)), nil
		}
		idx, err := e.elabExpr(v.args[0], sc)
		if err != nil {
			return nil, err
		}
		return rtl.IndexE(e.b.Ref(si.id), idx), nil
	}
	switch v.fn {
	case "std_logic_vector", "unsigned", "signed", "std_ulogic_vector":
		if len(v.args) != 1 {
			return nil, fmt.Errorf("vhdl: line %d: %s expects one argument", v.line, v.fn)
		}
		return e.elabExpr(v.args[0], sc)
	case "to_integer":
		if len(v.args) != 1 {
			return nil, fmt.Errorf("vhdl: line %d: to_integer expects one argument", v.line)
		}
		a, err := e.elabExpr(v.args[0], sc)
		if err != nil {
			return nil, err
		}
		return rtl.Resize(a, 32), nil
	case "resize", "to_unsigned", "to_signed":
		if len(v.args) != 2 {
			return nil, fmt.Errorf("vhdl: line %d: %s expects two arguments", v.line, v.fn)
		}
		w, err := e.evalConst(v.args[1], sc)
		if err != nil {
			return nil, fmt.Errorf("vhdl: line %d: %s width must be constant: %w", v.line, v.fn, err)
		}
		if w < 1 || w > 64 {
			return nil, fmt.Errorf("vhdl: line %d: width %d out of range", v.line, w)
		}
		a, err := e.elabExpr(v.args[0], sc)
		if err != nil {
			return nil, err
		}
		return rtl.Resize(a, int(w)), nil
	case "shift_left":
		a, err := e.elabExpr(v.args[0], sc)
		if err != nil {
			return nil, err
		}
		n, err := e.elabExpr(v.args[1], sc)
		if err != nil {
			return nil, err
		}
		return rtl.Shl(a, n), nil
	case "shift_right":
		a, err := e.elabExpr(v.args[0], sc)
		if err != nil {
			return nil, err
		}
		n, err := e.elabExpr(v.args[1], sc)
		if err != nil {
			return nil, err
		}
		return rtl.Shr(a, n), nil
	case "rising_edge":
		// Reached only when a rising_edge test survives outside the clock
		// strip (e.g. in an expression); every Tick is a posedge.
		return rtl.C(1, 1), nil
	case "falling_edge":
		return rtl.C(0, 1), nil
	}
	return nil, fmt.Errorf("vhdl: line %d: unsupported function or undeclared array %q", v.line, v.fn)
}
