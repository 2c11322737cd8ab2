package verilog

import (
	"fmt"
	"sort"
	"strings"

	"gem5rtl/internal/rtl"
	"gem5rtl/internal/rtlc"
)

// Elaborate flattens the named top module of a parsed source file into an
// rtl.Circuit, resolving parameters, synthesising procedural always blocks
// into mux trees (last assignment wins, first case match wins), and
// recursively inlining module instances with dotted name prefixes.
// overrides replaces top-level parameter defaults.
func Elaborate(file *SourceFile, top string, overrides map[string]int64) (*rtl.Circuit, error) {
	mod := file.ModuleByName(top)
	if mod == nil {
		return nil, fmt.Errorf("verilog: no module %q in source", top)
	}
	e := &elab{file: file, b: rtl.NewBuilder(top)}
	sc, err := e.declareModule(mod, "", overrides, true)
	if err != nil {
		return nil, err
	}
	if err := e.elabItems(sc); err != nil {
		return nil, err
	}
	c, err := e.b.Build()
	if err != nil {
		return nil, fmt.Errorf("verilog: %s: %w", top, err)
	}
	return c, nil
}

// Compile parses, elaborates and compiles source in one call — the
// equivalent of invoking Verilator on a file with a given top module.
func Compile(src, top string, overrides map[string]int64) (*rtl.Model, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	c, err := Elaborate(f, top, overrides)
	if err != nil {
		return nil, err
	}
	m, err := rtlc.NewModel(c)
	if err != nil {
		// A comb always block with a path that never assigns a target shows
		// up as a self-dependency; translate the engine's message.
		if strings.Contains(err.Error(), "combinational loop") {
			return nil, fmt.Errorf("verilog: %w (a combinational always block may leave a target unassigned on some path — inferred latch)", err)
		}
		return nil, err
	}
	return m, nil
}

type elab struct {
	file *SourceFile
	b    *rtl.Builder
}

type sigInfo struct {
	id    rtl.SigID
	width int
}

type memInfo struct {
	id    rtl.MemID
	width int
	depth int
}

// scope is one elaborated module instance.
type scope struct {
	mod    *ModuleDecl
	prefix string
	params map[string]int64
	sigs   map[string]sigInfo
	mems   map[string]memInfo
}

// declareModule creates all signals and memories of a module instance.
// For non-top instances, ports are plain nets to be wired by the parent.
func (e *elab) declareModule(mod *ModuleDecl, prefix string, paramOverrides map[string]int64, isTop bool) (*scope, error) {
	sc := &scope{mod: mod, prefix: prefix,
		params: map[string]int64{}, sigs: map[string]sigInfo{}, mems: map[string]memInfo{}}
	// Header parameters, with overrides.
	for _, p := range mod.Params {
		v, err := e.evalConst(p.Value, sc)
		if err != nil {
			return nil, err
		}
		sc.params[p.Name] = v
	}
	for name, v := range paramOverrides {
		if _, ok := sc.params[name]; !ok && !isTop {
			return nil, fmt.Errorf("verilog: module %s has no parameter %q", mod.Name, name)
		}
		sc.params[name] = v
	}
	// Body parameters/localparams (may reference header params).
	for _, it := range mod.Items {
		if p, ok := it.(*ParamDecl); ok {
			if _, overridden := sc.params[p.Name]; overridden && !p.Local {
				continue
			}
			v, err := e.evalConst(p.Value, sc)
			if err != nil {
				return nil, err
			}
			sc.params[p.Name] = v
		}
	}
	// Classify sequential targets so net kinds reflect real drivers.
	seqDriven := map[string]bool{}
	for _, it := range mod.Items {
		if a, ok := it.(*AlwaysItem); ok && a.Kind == AlwaysSeq {
			collectTargets(a.Body, seqDriven)
		}
	}
	// Ports.
	for _, p := range mod.Ports {
		w, err := e.rangeWidth(p.MSB, p.LSB, sc)
		if err != nil {
			return nil, fmt.Errorf("verilog: line %d: port %s: %w", p.Line, p.Name, err)
		}
		full := prefix + p.Name
		var id rtl.SigID
		switch {
		case p.Dir == DirInput && isTop:
			id = e.b.Input(full, w)
		case p.Dir == DirInput:
			id = e.b.Wire(full, w)
		case isTop: // output of top: exported, comb- or seq-driven
			id = e.b.Output(full, w)
		case seqDriven[p.Name]:
			id = e.b.Reg(full, w, 0)
		default:
			id = e.b.Wire(full, w)
		}
		sc.sigs[p.Name] = sigInfo{id, w}
	}
	// Nets and memories.
	for _, it := range mod.Items {
		d, ok := it.(*NetDecl)
		if !ok {
			continue
		}
		w, err := e.rangeWidth(d.MSB, d.LSB, sc)
		if err != nil {
			return nil, fmt.Errorf("verilog: line %d: %w", d.Line, err)
		}
		for _, nn := range d.Names {
			if _, dup := sc.sigs[nn.Name]; dup {
				// Verilog allows re-declaring a port as reg/wire in the body;
				// accept silently if widths agree.
				if sc.sigs[nn.Name].width != w {
					return nil, fmt.Errorf("verilog: line %d: %s redeclared with different width", d.Line, nn.Name)
				}
				continue
			}
			full := prefix + nn.Name
			if nn.ArrayMSB != nil {
				hi, err := e.evalConst(nn.ArrayMSB, sc)
				if err != nil {
					return nil, err
				}
				lo, err := e.evalConst(nn.ArrayLSB, sc)
				if err != nil {
					return nil, err
				}
				if lo > hi {
					hi, lo = lo, hi
				}
				depth := int(hi-lo) + 1
				id := e.b.Mem(full, w, depth)
				sc.mems[nn.Name] = memInfo{id, w, depth}
				continue
			}
			var id rtl.SigID
			if seqDriven[nn.Name] {
				init := uint64(0)
				if nn.Init != nil {
					v, err := e.evalConst(nn.Init, sc)
					if err != nil {
						return nil, fmt.Errorf("verilog: line %d: reg initialiser must be constant: %w", d.Line, err)
					}
					init = uint64(v)
				}
				id = e.b.Reg(full, w, init)
			} else {
				id = e.b.Wire(full, w)
			}
			sc.sigs[nn.Name] = sigInfo{id, w}
		}
	}
	return sc, nil
}

// collectTargets records every lvalue name assigned under stmts.
func collectTargets(stmts []Stmt, out map[string]bool) {
	for _, s := range stmts {
		switch v := s.(type) {
		case *AssignStmt:
			if v.LHS.Index == nil || true { // memories filtered later by decl
				out[v.LHS.Name] = true
			}
		case *IfStmt:
			collectTargets(v.Then, out)
			collectTargets(v.Else, out)
		case *CaseStmt:
			for _, it := range v.Items {
				collectTargets(it.Body, out)
			}
		}
	}
}

// elabItems walks a module's items, generating logic and instantiating
// children.
func (e *elab) elabItems(sc *scope) error {
	// Wire-with-initialiser becomes a continuous assign.
	for _, it := range sc.mod.Items {
		if d, ok := it.(*NetDecl); ok && !d.IsReg {
			for _, nn := range d.Names {
				if nn.Init != nil {
					si := sc.sigs[nn.Name]
					rhs, err := e.elabExpr(nn.Init, sc, nil)
					if err != nil {
						return err
					}
					e.b.Assign(si.id, rtl.Resize(rhs, si.width))
				}
			}
		}
	}
	for _, it := range sc.mod.Items {
		switch v := it.(type) {
		case *NetDecl, *ParamDecl:
			// handled in declareModule
		case *AssignItem:
			if err := e.elabContAssign(v, sc); err != nil {
				return err
			}
		case *AlwaysItem:
			if err := e.elabAlways(v, sc); err != nil {
				return err
			}
		case *InstanceItem:
			if err := e.elabInstance(v, sc); err != nil {
				return err
			}
		default:
			return fmt.Errorf("verilog: unsupported item %T", it)
		}
	}
	return nil
}

func (e *elab) elabContAssign(a *AssignItem, sc *scope) error {
	si, ok := sc.sigs[a.LHS.Name]
	if !ok {
		return fmt.Errorf("verilog: line %d: assign to undeclared %q", a.Line, a.LHS.Name)
	}
	if a.LHS.Index != nil || a.LHS.MSB != nil {
		return fmt.Errorf("verilog: line %d: continuous assign to a bit/part select of %q is not supported (assign the whole net)", a.Line, a.LHS.Name)
	}
	rhs, err := e.elabExpr(a.RHS, sc, nil)
	if err != nil {
		return err
	}
	e.b.Assign(si.id, rtl.Resize(rhs, si.width))
	return nil
}

// memWriteRec is a pending clocked memory write gathered during a walk.
type memWriteRec struct {
	mem  memInfo
	addr rtl.Expr
	data rtl.Expr
	en   rtl.Expr
}

func (e *elab) elabAlways(a *AlwaysItem, sc *scope) error {
	env := map[string]rtl.Expr{}
	var memws []memWriteRec
	seq := a.Kind == AlwaysSeq
	if err := e.walkStmts(a.Body, sc, env, nil, seq, &memws); err != nil {
		return err
	}
	// Emit in sorted target order: env is a map, and the emission order fixes
	// the circuit's Seqs/Combs layout, which fault injection, checkpoints and
	// VCD dumps all index. Map order would make two compiles of the same
	// source disagree on which state bit a given injection pick lands on.
	targets := make([]string, 0, len(env))
	for name := range env {
		targets = append(targets, name)
	}
	sort.Strings(targets)
	for _, name := range targets {
		si := sc.sigs[name]
		if seq {
			e.b.Seq(si.id, rtl.Resize(env[name], si.width))
		} else {
			e.b.Assign(si.id, rtl.Resize(env[name], si.width))
		}
	}
	if !seq && len(memws) > 0 {
		return fmt.Errorf("verilog: memory writes are only supported in clocked always blocks")
	}
	for _, w := range memws {
		e.b.MemWr(w.mem.id, w.addr, rtl.Resize(w.data, w.mem.width), w.en)
	}
	return nil
}

// walkStmts synthesises procedural statements into per-target expressions.
// env maps target names to their current expression. Branching statements
// walk each arm on a copy of env and merge with muxes, so a target assigned
// on every path never references its own previous value (which would
// otherwise read as an inferred latch in combinational blocks). memCond is
// the accumulated path condition used to gate memory writes.
func (e *elab) walkStmts(stmts []Stmt, sc *scope, env map[string]rtl.Expr,
	memCond rtl.Expr, seq bool, memws *[]memWriteRec) error {
	for _, s := range stmts {
		switch v := s.(type) {
		case *NullStmt:
		case *AssignStmt:
			if err := e.walkAssign(v, sc, env, memCond, seq, memws); err != nil {
				return err
			}
		case *IfStmt:
			c, err := e.elabExpr(v.Cond, sc, readEnv(env, seq))
			if err != nil {
				return err
			}
			cb := boolE(c)
			envT := cloneEnv(env)
			envE := cloneEnv(env)
			if err := e.walkStmts(v.Then, sc, envT, andCond(memCond, cb), seq, memws); err != nil {
				return err
			}
			if len(v.Else) > 0 {
				if err := e.walkStmts(v.Else, sc, envE, andCond(memCond, rtl.LNot(cb)), seq, memws); err != nil {
					return err
				}
			}
			e.mergeEnv(env, cb, envT, envE, sc)
		case *CaseStmt:
			if err := e.walkStmts(desugarCase(v), sc, env, memCond, seq, memws); err != nil {
				return err
			}
		default:
			return fmt.Errorf("verilog: unsupported statement %T", s)
		}
	}
	return nil
}

// desugarCase converts a case statement into a priority if/else chain
// (first matching arm wins, default as final else).
func desugarCase(cs *CaseStmt) []Stmt {
	var els []Stmt
	for _, item := range cs.Items {
		if len(item.Matches) == 0 {
			els = item.Body
		}
	}
	for i := len(cs.Items) - 1; i >= 0; i-- {
		item := cs.Items[i]
		if len(item.Matches) == 0 {
			continue
		}
		var cond Expr
		for _, m := range item.Matches {
			eq := &BinaryExpr{Op: "==", X: cs.Subject, Y: m, Line: cs.Line}
			if cond == nil {
				cond = eq
			} else {
				cond = &BinaryExpr{Op: "||", X: cond, Y: eq, Line: cs.Line}
			}
		}
		els = []Stmt{&IfStmt{Cond: cond, Then: item.Body, Else: els, Line: cs.Line}}
	}
	return els
}

func cloneEnv(env map[string]rtl.Expr) map[string]rtl.Expr {
	out := make(map[string]rtl.Expr, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

// mergeEnv folds two branch environments back into env with muxes on cond.
// Targets untouched by a branch fall back to the pre-branch value, or to the
// signal's own register value if never assigned (hold/latch semantics).
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
			si := sc.sigs[k]
			base = e.b.Ref(si.id)
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

// readEnv returns the environment procedural reads should consult: for
// combinational blocks blocking reads see earlier assignments; clocked
// blocks use non-blocking semantics (reads see pre-edge values).
func readEnv(env map[string]rtl.Expr, seq bool) map[string]rtl.Expr {
	if seq {
		return nil
	}
	return env
}

// andCond conjoins path conditions, treating nil as true.
func andCond(a, b rtl.Expr) rtl.Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return rtl.LAnd(a, b)
}

// boolE reduces an arbitrary-width expression to one bit of truthiness.
func boolE(x rtl.Expr) rtl.Expr {
	if x.Width() == 1 {
		return x
	}
	return rtl.RedOr(x)
}

func exprW(x rtl.Expr) int { return x.Width() }

func (e *elab) walkAssign(v *AssignStmt, sc *scope, env map[string]rtl.Expr,
	memCond rtl.Expr, seq bool, memws *[]memWriteRec) error {
	rhs, err := e.elabExpr(v.RHS, sc, readEnv(env, seq))
	if err != nil {
		return err
	}
	// Memory word write?
	if mi, isMem := sc.mems[v.LHS.Name]; isMem {
		if v.LHS.Index == nil {
			return fmt.Errorf("verilog: line %d: assignment to whole memory %q", v.Line, v.LHS.Name)
		}
		addr, err := e.elabExpr(v.LHS.Index, sc, readEnv(env, seq))
		if err != nil {
			return err
		}
		en := memCond
		if en == nil {
			en = rtl.C(1, 1)
		}
		*memws = append(*memws, memWriteRec{mem: mi, addr: addr, data: rhs, en: en})
		return nil
	}
	si, ok := sc.sigs[v.LHS.Name]
	if !ok {
		return fmt.Errorf("verilog: line %d: assignment to undeclared %q", v.Line, v.LHS.Name)
	}
	cur, have := env[v.LHS.Name]
	if !have {
		cur = e.b.Ref(si.id)
	}
	var newVal rtl.Expr
	switch {
	case v.LHS.Index == nil && v.LHS.MSB == nil:
		newVal = rtl.Resize(rhs, si.width)
	case v.LHS.MSB != nil:
		hi64, err := e.evalConst(v.LHS.MSB, sc)
		if err != nil {
			return fmt.Errorf("verilog: line %d: part-select bounds must be constant: %w", v.Line, err)
		}
		lo64, err := e.evalConst(v.LHS.LSB, sc)
		if err != nil {
			return fmt.Errorf("verilog: line %d: part-select bounds must be constant: %w", v.Line, err)
		}
		hi, lo := int(hi64), int(lo64)
		if lo > hi || hi >= si.width {
			return fmt.Errorf("verilog: line %d: part-select [%d:%d] out of range for %q", v.Line, hi, lo, v.LHS.Name)
		}
		newVal = spliceBits(cur, rtl.Resize(rhs, hi-lo+1), hi, lo, si.width)
	default:
		// Bit select, possibly dynamic.
		if c, isConst := constOf(v.LHS.Index, sc, e); isConst {
			bit := int(c)
			if bit >= si.width {
				return fmt.Errorf("verilog: line %d: bit %d out of range for %q", v.Line, bit, v.LHS.Name)
			}
			newVal = spliceBits(cur, rtl.Resize(rhs, 1), bit, bit, si.width)
		} else {
			idx, err := e.elabExpr(v.LHS.Index, sc, readEnv(env, seq))
			if err != nil {
				return err
			}
			one := rtl.Shl(rtl.C(1, si.width), rtl.Resize(idx, si.width))
			bitv := rtl.Shl(rtl.Resize(rhs, si.width), rtl.Resize(idx, si.width))
			newVal = rtl.OrE(rtl.AndE(cur, rtl.Not(one)), rtl.AndE(bitv, one))
		}
	}
	env[v.LHS.Name] = newVal
	return nil
}

// spliceBits replaces bits [hi:lo] of cur (width w) with repl.
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

// constOf attempts constant evaluation, returning ok=false on any
// non-constant subexpression.
func constOf(x Expr, sc *scope, e *elab) (int64, bool) {
	v, err := e.evalConst(x, sc)
	if err != nil {
		return 0, false
	}
	return v, true
}

func (e *elab) elabInstance(inst *InstanceItem, sc *scope) error {
	child := e.file.ModuleByName(inst.ModName)
	if child == nil {
		return fmt.Errorf("verilog: line %d: unknown module %q", inst.Line, inst.ModName)
	}
	overrides := map[string]int64{}
	for name, expr := range inst.Params {
		v, err := e.evalConst(expr, sc)
		if err != nil {
			return fmt.Errorf("verilog: line %d: parameter override %q must be constant: %w", inst.Line, name, err)
		}
		overrides[name] = v
	}
	childScope, err := e.declareModule(child, sc.prefix+inst.InstName+".", overrides, false)
	if err != nil {
		return err
	}
	if err := e.elabItems(childScope); err != nil {
		return err
	}
	// Wire the ports.
	for _, p := range child.Ports {
		conn, given := inst.Conns[p.Name]
		csi := childScope.sigs[p.Name]
		if p.Dir == DirInput {
			if !given || conn == nil {
				e.b.Assign(csi.id, rtl.C(0, csi.width))
				continue
			}
			pe, err := e.elabExpr(conn, sc, nil)
			if err != nil {
				return err
			}
			e.b.Assign(csi.id, rtl.Resize(pe, csi.width))
		} else {
			if !given || conn == nil {
				continue // dangling output
			}
			id, ok := conn.(*IdentExpr)
			if !ok {
				return fmt.Errorf("verilog: line %d: output port %s.%s must connect to a simple net", inst.Line, inst.InstName, p.Name)
			}
			psi, ok := sc.sigs[id.Name]
			if !ok {
				return fmt.Errorf("verilog: line %d: connection to undeclared net %q", inst.Line, id.Name)
			}
			e.b.Assign(psi.id, rtl.Resize(e.b.Ref(csi.id), psi.width))
		}
	}
	// Check for connections to nonexistent ports.
	for name := range inst.Conns {
		found := false
		for _, p := range child.Ports {
			if p.Name == name {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("verilog: line %d: module %s has no port %q", inst.Line, inst.ModName, name)
		}
	}
	return nil
}

// rangeWidth computes a vector width from an optional [msb:lsb] range.
func (e *elab) rangeWidth(msb, lsb Expr, sc *scope) (int, error) {
	if msb == nil {
		return 1, nil
	}
	hi, err := e.evalConst(msb, sc)
	if err != nil {
		return 0, err
	}
	lo, err := e.evalConst(lsb, sc)
	if err != nil {
		return 0, err
	}
	if lo != 0 {
		return 0, fmt.Errorf("only [N:0] ranges are supported (got [%d:%d])", hi, lo)
	}
	w := int(hi) + 1
	if w < 1 || w > 64 {
		return 0, fmt.Errorf("width %d out of supported range [1,64]", w)
	}
	return w, nil
}

// evalConst evaluates a constant expression (literals, parameters,
// arithmetic) for parameter values, ranges and replication counts.
func (e *elab) evalConst(x Expr, sc *scope) (int64, error) {
	switch v := x.(type) {
	case *NumExpr:
		return int64(v.Val), nil
	case *IdentExpr:
		if p, ok := sc.params[v.Name]; ok {
			return p, nil
		}
		return 0, fmt.Errorf("line %d: %q is not a constant/parameter", v.Line, v.Name)
	case *UnaryExpr:
		xv, err := e.evalConst(v.X, sc)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "-":
			return -xv, nil
		case "~":
			return ^xv, nil
		case "!":
			if xv == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("line %d: unary %q not allowed in constant expression", v.Line, v.Op)
	case *BinaryExpr:
		a, err := e.evalConst(v.X, sc)
		if err != nil {
			return 0, err
		}
		b, err := e.evalConst(v.Y, sc)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "/":
			if b == 0 {
				return 0, fmt.Errorf("line %d: constant division by zero", v.Line)
			}
			return a / b, nil
		case "%":
			if b == 0 {
				return 0, fmt.Errorf("line %d: constant modulo by zero", v.Line)
			}
			return a % b, nil
		case "<<":
			return a << uint(b), nil
		case ">>":
			return a >> uint(b), nil
		case "**":
			r := int64(1)
			for i := int64(0); i < b; i++ {
				r *= a
			}
			return r, nil
		case "&":
			return a & b, nil
		case "|":
			return a | b, nil
		case "^":
			return a ^ b, nil
		}
		return 0, fmt.Errorf("line %d: operator %q not allowed in constant expression", v.Line, v.Op)
	case *CondExpr:
		c, err := e.evalConst(v.Cond, sc)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return e.evalConst(v.T, sc)
		}
		return e.evalConst(v.F, sc)
	}
	return 0, fmt.Errorf("non-constant expression %T", x)
}

// elabExpr converts an AST expression to an rtl expression. env, when
// non-nil, provides blocking-assignment values for identifier reads inside
// combinational always blocks.
func (e *elab) elabExpr(x Expr, sc *scope, env map[string]rtl.Expr) (rtl.Expr, error) {
	switch v := x.(type) {
	case *NumExpr:
		w := v.Width
		if w == 0 {
			w = 32
			// Shrink unsized literals that wouldn't fit default 32 bits.
			if v.Val > 0xFFFFFFFF {
				w = 64
			}
		}
		return rtl.C(v.Val, w), nil
	case *IdentExpr:
		if p, ok := sc.params[v.Name]; ok {
			return rtl.C(uint64(p), 32), nil
		}
		if env != nil {
			if cur, ok := env[v.Name]; ok {
				return cur, nil
			}
		}
		if si, ok := sc.sigs[v.Name]; ok {
			return e.b.Ref(si.id), nil
		}
		if _, ok := sc.mems[v.Name]; ok {
			return nil, fmt.Errorf("line %d: memory %q used without an index", v.Line, v.Name)
		}
		return nil, fmt.Errorf("line %d: undeclared identifier %q", v.Line, v.Name)
	case *SelectExpr:
		// Memory read?
		if id, ok := v.Base.(*IdentExpr); ok {
			if mi, isMem := sc.mems[id.Name]; isMem {
				if v.Index == nil {
					return nil, fmt.Errorf("line %d: part-select of memory %q", v.Line, id.Name)
				}
				addr, err := e.elabExpr(v.Index, sc, env)
				if err != nil {
					return nil, err
				}
				return rtl.MemRd(mi.id, addr, mi.width), nil
			}
		}
		base, err := e.elabExpr(v.Base, sc, env)
		if err != nil {
			return nil, err
		}
		if v.MSB != nil {
			hi, err := e.evalConst(v.MSB, sc)
			if err != nil {
				return nil, fmt.Errorf("line %d: part-select bounds must be constant: %w", v.Line, err)
			}
			lo, err := e.evalConst(v.LSB, sc)
			if err != nil {
				return nil, fmt.Errorf("line %d: part-select bounds must be constant: %w", v.Line, err)
			}
			if lo > hi || int(hi) >= base.Width() {
				return nil, fmt.Errorf("line %d: part-select [%d:%d] out of range (width %d)", v.Line, hi, lo, base.Width())
			}
			return rtl.SliceE(base, int(hi), int(lo)), nil
		}
		if c, ok := constOf(v.Index, sc, e); ok {
			if int(c) >= base.Width() {
				return nil, fmt.Errorf("line %d: bit %d out of range (width %d)", v.Line, c, base.Width())
			}
			return rtl.Bit(base, int(c)), nil
		}
		idx, err := e.elabExpr(v.Index, sc, env)
		if err != nil {
			return nil, err
		}
		return rtl.IndexE(base, idx), nil
	case *UnaryExpr:
		xe, err := e.elabExpr(v.X, sc, env)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "~":
			return rtl.Not(xe), nil
		case "-":
			return rtl.Neg(xe), nil
		case "!":
			return rtl.LNot(xe), nil
		case "&":
			return rtl.RedAnd(xe), nil
		case "|":
			return rtl.RedOr(xe), nil
		case "^":
			return rtl.RedXor(xe), nil
		case "~|":
			return rtl.LNot(rtl.RedOr(xe)), nil
		case "~&":
			return rtl.LNot(rtl.RedAnd(xe)), nil
		case "~^":
			return rtl.LNot(rtl.RedXor(xe)), nil
		}
		return nil, fmt.Errorf("line %d: unsupported unary %q", v.Line, v.Op)
	case *BinaryExpr:
		xe, err := e.elabExpr(v.X, sc, env)
		if err != nil {
			return nil, err
		}
		ye, err := e.elabExpr(v.Y, sc, env)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "+":
			return rtl.Add(xe, ye), nil
		case "-":
			return rtl.Sub(xe, ye), nil
		case "*":
			return rtl.MulE(xe, ye), nil
		case "/":
			return rtl.DivE(xe, ye), nil
		case "%":
			return rtl.ModE(xe, ye), nil
		case "&":
			return rtl.AndE(xe, ye), nil
		case "|":
			return rtl.OrE(xe, ye), nil
		case "^":
			return rtl.XorE(xe, ye), nil
		case "<<", "<<<":
			return rtl.Shl(xe, ye), nil
		case ">>":
			return rtl.Shr(xe, ye), nil
		case ">>>":
			return rtl.Sra(xe, ye), nil
		case "==", "===":
			return rtl.Eq(xe, ye), nil
		case "!=", "!==":
			return rtl.Ne(xe, ye), nil
		case "<":
			return rtl.Lt(xe, ye), nil
		case "<=":
			return rtl.Le(xe, ye), nil
		case ">":
			return rtl.Gt(xe, ye), nil
		case ">=":
			return rtl.Ge(xe, ye), nil
		case "&&":
			return rtl.LAnd(xe, ye), nil
		case "||":
			return rtl.LOr(xe, ye), nil
		}
		return nil, fmt.Errorf("line %d: unsupported binary %q", v.Line, v.Op)
	case *CondExpr:
		c, err := e.elabExpr(v.Cond, sc, env)
		if err != nil {
			return nil, err
		}
		t, err := e.elabExpr(v.T, sc, env)
		if err != nil {
			return nil, err
		}
		f, err := e.elabExpr(v.F, sc, env)
		if err != nil {
			return nil, err
		}
		w := t.Width()
		if f.Width() > w {
			w = f.Width()
		}
		return rtl.MuxE(c, rtl.Resize(t, w), rtl.Resize(f, w)), nil
	case *ConcatExpr:
		parts := make([]rtl.Expr, 0, len(v.Parts))
		for _, p := range v.Parts {
			pe, err := e.elabExpr(p, sc, env)
			if err != nil {
				return nil, err
			}
			parts = append(parts, pe)
		}
		return rtl.Cat(parts...), nil
	case *RepeatExpr:
		n, err := e.evalConst(v.Count, sc)
		if err != nil {
			return nil, fmt.Errorf("line %d: replication count must be constant: %w", v.Line, err)
		}
		inner, err := e.elabExpr(v.X, sc, env)
		if err != nil {
			return nil, err
		}
		if n < 1 || int(n)*inner.Width() > 64 {
			return nil, fmt.Errorf("line %d: replication {%d{...}} exceeds 64 bits", v.Line, n)
		}
		parts := make([]rtl.Expr, n)
		for i := range parts {
			parts[i] = inner
		}
		return rtl.Cat(parts...), nil
	}
	return nil, fmt.Errorf("unsupported expression %T", x)
}
