package hdl

import (
	"fmt"
	"sort"
	"strings"

	"gem5rtl/internal/rtl"
	"gem5rtl/internal/rtlc"
)

// Elaborate flattens the named top module of d into an rtl.Circuit,
// resolving parameters, synthesising processes into mux trees (last
// assignment wins, first case match wins) and recursively inlining instances
// with dotted name prefixes. overrides replaces top-level parameter values.
func Elaborate(d *Design, top string, overrides map[string]int64) (*rtl.Circuit, error) {
	mod := d.Module(top)
	if mod == nil {
		return nil, fmt.Errorf("no module %q in source", top)
	}
	e := &elab{d: d, b: rtl.NewBuilder(top), active: map[*Module]bool{}}
	if _, err := e.module(mod, "", overrides, true); err != nil {
		return nil, err
	}
	c, err := e.b.Build()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", top, err)
	}
	return c, nil
}

// Compile elaborates the named top module of d and compiles it into a
// tickable model — what Verilator or GHDL produce in the paper's flow.
func Compile(d *Design, top string, overrides map[string]int64) (*rtl.Model, error) {
	c, err := Elaborate(d, top, overrides)
	if err != nil {
		return nil, err
	}
	m, err := rtlc.NewModel(c)
	if err != nil && strings.Contains(err.Error(), "combinational loop") {
		// A combinational process with a path that never assigns a target
		// reads the target's own value: translate the engine's message.
		return nil, fmt.Errorf("%w (a combinational process may leave a target unassigned on some path — inferred latch)", err)
	}
	return m, err
}

type elab struct {
	d      *Design
	b      *rtl.Builder
	active map[*Module]bool // modules being elaborated, to refuse recursion
}

type sigInfo struct {
	id    rtl.SigID
	width int
}

type memInfo struct {
	id    rtl.MemID
	width int
}

// scope is one elaborated module instance.
type scope struct {
	prefix string
	params map[string]int64
	sigs   map[string]sigInfo
	mems   map[string]memInfo
}

// module declares the signals and memories of one instance of mod and
// elaborates its items. A top module's ports are the circuit's inputs and
// outputs; a child's are plain nets its parent wires.
func (e *elab) module(mod *Module, prefix string, overrides map[string]int64, top bool) (*scope, error) {
	if e.active[mod] {
		return nil, fmt.Errorf("module %s instantiates itself", mod.Name)
	}
	e.active[mod] = true
	defer delete(e.active, mod)
	sc := &scope{prefix: prefix, params: map[string]int64{}, sigs: map[string]sigInfo{}, mems: map[string]memInfo{}}
	for name := range overrides {
		if !overridable(mod, name) {
			return nil, fmt.Errorf("module %s has no parameter %q", mod.Name, name)
		}
	}
	for _, p := range mod.Params {
		if v, ok := overrides[p.Name]; ok && !p.Local {
			sc.params[p.Name] = v
			continue
		}
		if p.Value == nil {
			continue
		}
		v, err := e.evalConst(p.Value, sc)
		if err != nil {
			return nil, err
		}
		sc.params[p.Name] = v
	}
	// Classify clocked targets so net kinds reflect their real drivers.
	seqDriven := map[string]bool{}
	for _, it := range mod.Items {
		if p, ok := it.(*Process); ok && p.Clocked {
			collectTargets(p.Body, seqDriven)
		}
	}
	for _, p := range mod.Ports {
		w, err := e.width(p.Range, sc)
		if err != nil {
			return nil, fmt.Errorf("line %d: port %s: %w", p.Line, p.Name, err)
		}
		full := prefix + p.Name
		var id rtl.SigID
		switch {
		case p.In && top:
			id = e.b.Input(full, w)
		case p.In:
			id = e.b.Wire(full, w)
		case top: // exported, comb- or seq-driven
			id = e.b.Output(full, w)
		case seqDriven[p.Name]:
			id = e.b.Reg(full, w, 0)
		default:
			id = e.b.Wire(full, w)
		}
		sc.sigs[p.Name] = sigInfo{id, w}
	}
	for _, n := range mod.Nets {
		w, err := e.width(n.Range, sc)
		if err != nil {
			return nil, fmt.Errorf("line %d: %s: %w", n.Line, n.Name, err)
		}
		if s, dup := sc.sigs[n.Name]; dup {
			// A port may be declared again in the body if the widths agree.
			if s.width != w {
				return nil, fmt.Errorf("line %d: %s redeclared with different width", n.Line, n.Name)
			}
			continue
		}
		full := prefix + n.Name
		switch {
		case n.Array != nil:
			hi, lo, err := e.bounds(n.Array.MSB, n.Array.LSB, sc)
			if err != nil {
				return nil, err
			}
			if lo > hi {
				hi, lo = lo, hi
			}
			sc.mems[n.Name] = memInfo{e.b.Mem(full, w, int(hi-lo)+1), w}
		case seqDriven[n.Name]:
			init, err := e.initValue(n.Init, sc, w)
			if err != nil {
				return nil, fmt.Errorf("line %d: initial value of %s must be constant: %w", n.Line, n.Name, err)
			}
			sc.sigs[n.Name] = sigInfo{e.b.Reg(full, w, init), w}
		default:
			sc.sigs[n.Name] = sigInfo{e.b.Wire(full, w), w}
		}
	}
	for _, it := range mod.Items {
		var err error
		switch v := it.(type) {
		case *Assign:
			err = e.contAssign(v, sc)
		case *Process:
			err = e.process(v, sc)
		case *Instance:
			err = e.instance(v, sc)
		}
		if err != nil {
			return nil, err
		}
	}
	return sc, nil
}

func overridable(mod *Module, name string) bool {
	for _, p := range mod.Params {
		if p.Name == name && !p.Local {
			return true
		}
	}
	return false
}

// collectTargets records the name of every target assigned under stmts.
func collectTargets(stmts []Stmt, out map[string]bool) {
	for _, s := range stmts {
		switch v := s.(type) {
		case *Assign:
			if name, _, err := target(v.LHS); err == nil {
				out[name] = true
			}
		case *If:
			collectTargets(v.Then, out)
			collectTargets(v.Else, out)
		case *Case:
			for _, a := range v.Arms {
				collectTargets(a.Body, out)
			}
		}
	}
}

// target splits an assignment's left-hand side into the assigned name and
// its select, nil when the whole net is assigned.
func target(lhs Expr) (string, *Select, error) {
	switch v := lhs.(type) {
	case *Ident:
		return v.Name, nil, nil
	case *Select:
		if id, ok := v.Base.(*Ident); ok {
			return id.Name, v, nil
		}
	}
	return "", nil, fmt.Errorf("unsupported assignment target %T", lhs)
}

func (e *elab) contAssign(a *Assign, sc *scope) error {
	name, sel, err := target(a.LHS)
	if err != nil {
		return fmt.Errorf("line %d: %w", a.Line, err)
	}
	s, ok := sc.sigs[name]
	if !ok {
		return fmt.Errorf("line %d: assign to undeclared %q", a.Line, name)
	}
	if sel != nil {
		return fmt.Errorf("line %d: continuous assign to a bit/part select of %q is not supported (assign the whole net)", a.Line, name)
	}
	rhs, err := e.expr(a.RHS, sc, nil, s.width)
	if err != nil {
		return err
	}
	e.b.Assign(s.id, rtl.Resize(rhs, s.width))
	return nil
}

// memWrite is a clocked memory write gathered while walking a process.
type memWrite struct {
	mem            memInfo
	addr, data, en rtl.Expr
}

// walker synthesises one process's statements.
type walker struct {
	e     *elab
	sc    *scope
	p     *Process
	memws []memWrite
}

func (e *elab) process(p *Process, sc *scope) error {
	w := &walker{e: e, sc: sc, p: p}
	env := map[string]rtl.Expr{}
	if err := w.stmts(p.Body, env, nil); err != nil {
		return err
	}
	if !p.Clocked && len(w.memws) > 0 {
		return fmt.Errorf("memory writes are only supported in clocked processes")
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
		s := sc.sigs[name]
		if p.Clocked {
			e.b.Seq(s.id, rtl.Resize(env[name], s.width))
		} else {
			e.b.Assign(s.id, rtl.Resize(env[name], s.width))
		}
	}
	for _, m := range w.memws {
		e.b.MemWr(m.mem.id, m.addr, rtl.Resize(m.data, m.mem.width), m.en)
	}
	return nil
}

// reads returns the environment the process's reads consult: its own
// pending assignments if it reads its own writes, else none (reads see the
// signals' current values — for a clocked process, the pre-edge ones).
func (w *walker) reads(env map[string]rtl.Expr) map[string]rtl.Expr {
	if w.p.ReadsOwnWrites {
		return env
	}
	return nil
}

// stmts synthesises statements into per-target expressions. env maps target
// names to their current expression. A branch walks each arm on a copy of
// env and merges them with muxes, so a target assigned on every path never
// references its own previous value (which would otherwise read as an
// inferred latch in a combinational process). path is the accumulated
// branch condition, nil for true, that gates memory writes.
func (w *walker) stmts(stmts []Stmt, env map[string]rtl.Expr, path rtl.Expr) error {
	for _, s := range stmts {
		switch v := s.(type) {
		case *Assign:
			if err := w.assign(v, env, path); err != nil {
				return err
			}
		case *If:
			c, err := w.e.expr(v.Cond, w.sc, w.reads(env), 0)
			if err != nil {
				return err
			}
			if c.Width() != 1 {
				c = rtl.RedOr(c)
			}
			envT, envE := cloneEnv(env), cloneEnv(env)
			if err := w.stmts(v.Then, envT, andCond(path, c)); err != nil {
				return err
			}
			if err := w.stmts(v.Else, envE, andCond(path, rtl.LNot(c))); err != nil {
				return err
			}
			w.mergeEnv(env, c, envT, envE)
		case *Case:
			if err := w.stmts(desugarCase(v), env, path); err != nil {
				return err
			}
		}
	}
	return nil
}

// desugarCase converts a case statement into a priority if/else chain
// (first matching arm wins, the default as the final else).
func desugarCase(cs *Case) []Stmt {
	var els []Stmt
	for _, a := range cs.Arms {
		if len(a.Match) == 0 {
			els = a.Body
		}
	}
	for i := len(cs.Arms) - 1; i >= 0; i-- {
		a := cs.Arms[i]
		if len(a.Match) == 0 {
			continue
		}
		var cond Expr
		for _, m := range a.Match {
			eq := &Binary{Op: "==", X: cs.Subject, Y: m, Line: cs.Line}
			if cond == nil {
				cond = eq
			} else {
				cond = &Binary{Op: "||", X: cond, Y: eq, Line: cs.Line}
			}
		}
		els = []Stmt{&If{Cond: cond, Then: a.Body, Else: els}}
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
// A target one branch leaves alone keeps its pre-branch value, or the
// signal's own current value if never assigned (hold/latch semantics).
func (w *walker) mergeEnv(env map[string]rtl.Expr, cond rtl.Expr, envT, envE map[string]rtl.Expr) {
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
			base = w.e.b.Ref(w.sc.sigs[k].id)
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
		width := max(tv.Width(), ev.Width())
		env[k] = rtl.MuxE(cond, rtl.Resize(tv, width), rtl.Resize(ev, width))
	}
}

// andCond conjoins path conditions, treating nil as true.
func andCond(a, b rtl.Expr) rtl.Expr {
	if a == nil {
		return b
	}
	return rtl.LAnd(a, b)
}

func (w *walker) assign(a *Assign, env map[string]rtl.Expr, path rtl.Expr) error {
	name, sel, err := target(a.LHS)
	if err != nil {
		return fmt.Errorf("line %d: %w", a.Line, err)
	}
	reads := w.reads(env)
	if m, ok := w.sc.mems[name]; ok {
		if sel == nil || sel.Index == nil {
			return fmt.Errorf("line %d: assignment to whole memory %q", a.Line, name)
		}
		data, err := w.e.expr(a.RHS, w.sc, reads, m.width)
		if err != nil {
			return err
		}
		addr, err := w.e.expr(sel.Index, w.sc, reads, 0)
		if err != nil {
			return err
		}
		en := path
		if en == nil {
			en = rtl.C(1, 1)
		}
		w.memws = append(w.memws, memWrite{mem: m, addr: addr, data: data, en: en})
		return nil
	}
	s, ok := w.sc.sigs[name]
	if !ok {
		return fmt.Errorf("line %d: assignment to undeclared %q", a.Line, name)
	}
	rhs, err := w.e.expr(a.RHS, w.sc, reads, s.width)
	if err != nil {
		return err
	}
	cur, have := env[name]
	if !have {
		cur = w.e.b.Ref(s.id)
	}
	switch {
	case sel == nil:
		env[name] = rtl.Resize(rhs, s.width)
	case sel.MSB != nil:
		hi, lo, err := w.e.bounds(sel.MSB, sel.LSB, w.sc)
		if err != nil {
			return fmt.Errorf("line %d: part-select bounds must be constant: %w", a.Line, err)
		}
		if lo < 0 || lo > hi || hi >= int64(s.width) {
			return fmt.Errorf("line %d: part-select [%d:%d] out of range for %q", a.Line, hi, lo, name)
		}
		env[name] = spliceBits(cur, rtl.Resize(rhs, int(hi-lo)+1), int(hi), int(lo), s.width)
	default:
		if bit, err := w.e.evalConst(sel.Index, w.sc); err == nil {
			if bit < 0 || bit >= int64(s.width) {
				return fmt.Errorf("line %d: bit %d out of range for %q", a.Line, bit, name)
			}
			env[name] = spliceBits(cur, rtl.Resize(rhs, 1), int(bit), int(bit), s.width)
			break
		}
		idx, err := w.e.expr(sel.Index, w.sc, reads, 0)
		if err != nil {
			return err
		}
		one := rtl.Shl(rtl.C(1, s.width), rtl.Resize(idx, s.width))
		bitv := rtl.Shl(rtl.Resize(rhs, s.width), rtl.Resize(idx, s.width))
		env[name] = rtl.OrE(rtl.AndE(cur, rtl.Not(one)), rtl.AndE(bitv, one))
	}
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

func (e *elab) instance(in *Instance, sc *scope) error {
	mod := e.d.Module(in.Module)
	if mod == nil {
		return fmt.Errorf("line %d: unknown module %q", in.Line, in.Module)
	}
	for name := range in.Conns {
		if !hasPort(mod, name) {
			return fmt.Errorf("line %d: module %s has no port %q", in.Line, in.Module, name)
		}
	}
	overrides := map[string]int64{}
	for name, x := range in.Params {
		v, err := e.evalConst(x, sc)
		if err != nil {
			return fmt.Errorf("line %d: parameter override %q must be constant: %w", in.Line, name, err)
		}
		overrides[name] = v
	}
	child, err := e.module(mod, sc.prefix+in.Name+".", overrides, false)
	if err != nil {
		return err
	}
	for _, p := range mod.Ports {
		conn, cs := in.Conns[p.Name], child.sigs[p.Name]
		switch {
		case p.In && conn == nil:
			e.b.Assign(cs.id, rtl.C(0, cs.width))
		case p.In:
			v, err := e.expr(conn, sc, nil, cs.width)
			if err != nil {
				return err
			}
			e.b.Assign(cs.id, rtl.Resize(v, cs.width))
		case conn != nil: // an unconnected output dangles
			id, ok := conn.(*Ident)
			if !ok {
				return fmt.Errorf("line %d: output port %s.%s must connect to a simple net", in.Line, in.Name, p.Name)
			}
			ps, ok := sc.sigs[id.Name]
			if !ok {
				return fmt.Errorf("line %d: connection to undeclared net %q", in.Line, id.Name)
			}
			e.b.Assign(ps.id, rtl.Resize(e.b.Ref(cs.id), ps.width))
		}
	}
	return nil
}

func hasPort(mod *Module, name string) bool {
	for _, p := range mod.Ports {
		if p.Name == name {
			return true
		}
	}
	return false
}

// width computes a vector width from an optional [msb:0] range.
func (e *elab) width(r *Range, sc *scope) (int, error) {
	if r == nil {
		return 1, nil
	}
	hi, lo, err := e.bounds(r.MSB, r.LSB, sc)
	if err != nil {
		return 0, err
	}
	if lo != 0 {
		return 0, fmt.Errorf("only [N:0] ranges are supported (got [%d:%d])", hi, lo)
	}
	if hi < 0 || hi > 63 {
		return 0, fmt.Errorf("width %d out of supported range [1,64]", hi+1)
	}
	return int(hi) + 1, nil
}

// bounds evaluates a constant pair of range or select bounds.
func (e *elab) bounds(msb, lsb Expr, sc *scope) (hi, lo int64, err error) {
	if hi, err = e.evalConst(msb, sc); err == nil {
		lo, err = e.evalConst(lsb, sc)
	}
	return hi, lo, err
}

// initValue evaluates a register's initial value at width w: zero when
// absent, a Fill sized to w.
func (e *elab) initValue(x Expr, sc *scope, w int) (uint64, error) {
	switch v := x.(type) {
	case nil:
		return 0, nil
	case *Fill:
		if v.One {
			return rtl.Mask(w), nil
		}
		return 0, nil
	}
	v, err := e.evalConst(x, sc)
	return uint64(v) & rtl.Mask(w), err
}

// evalConst evaluates a constant expression (literals, parameters,
// arithmetic) for parameter values, ranges, selects and counts. Arithmetic
// wraps at 64 bits.
func (e *elab) evalConst(x Expr, sc *scope) (int64, error) {
	switch v := x.(type) {
	case *Num:
		return int64(v.Val), nil
	case *Ident:
		if p, ok := sc.params[v.Name]; ok {
			return p, nil
		}
		return 0, fmt.Errorf("line %d: %q is not a constant/parameter", v.Line, v.Name)
	case *Unary:
		a, err := e.evalConst(v.X, sc)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "-":
			return -a, nil
		case "~":
			return ^a, nil
		case "!":
			if a == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("line %d: unary %q not allowed in constant expression", v.Line, v.Op)
	case *Binary:
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
			return a << uint64(b), nil
		case ">>":
			return a >> uint64(b), nil
		case "**":
			// Square-and-multiply: b can be as large as the int64 range.
			r := int64(1)
			for ; b > 0; b >>= 1 {
				if b&1 == 1 {
					r *= a
				}
				a *= a
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
	case *Cond:
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

// expr converts a tree expression to an rtl expression. env, when not nil,
// holds a process's pending values for identifier reads (ReadsOwnWrites).
// want is the width of the target the value is assigned to, 0 if none: it
// sizes a Fill, directly or as an arm of a Cond.
func (e *elab) expr(x Expr, sc *scope, env map[string]rtl.Expr, want int) (rtl.Expr, error) {
	switch v := x.(type) {
	case *Num:
		w := v.Width
		if w == 0 {
			w = 32
			if v.Val > 0xFFFFFFFF {
				w = 64
			}
		}
		return rtl.C(v.Val, w), nil
	case *Ident:
		if p, ok := sc.params[v.Name]; ok {
			return rtl.C(uint64(p), 32), nil
		}
		if cur, ok := env[v.Name]; ok {
			return cur, nil
		}
		if s, ok := sc.sigs[v.Name]; ok {
			return e.b.Ref(s.id), nil
		}
		if _, ok := sc.mems[v.Name]; ok {
			return nil, fmt.Errorf("line %d: memory %q used without an index", v.Line, v.Name)
		}
		return nil, fmt.Errorf("line %d: undeclared identifier %q", v.Line, v.Name)
	case *Select:
		if id, ok := v.Base.(*Ident); ok {
			if m, isMem := sc.mems[id.Name]; isMem {
				if v.Index == nil {
					return nil, fmt.Errorf("line %d: part-select of memory %q", v.Line, id.Name)
				}
				addr, err := e.expr(v.Index, sc, env, 0)
				if err != nil {
					return nil, err
				}
				return rtl.MemRd(m.id, addr, m.width), nil
			}
		}
		base, err := e.expr(v.Base, sc, env, 0)
		if err != nil {
			return nil, err
		}
		if v.MSB != nil {
			hi, lo, err := e.bounds(v.MSB, v.LSB, sc)
			if err != nil {
				return nil, fmt.Errorf("line %d: part-select bounds must be constant: %w", v.Line, err)
			}
			if lo < 0 || lo > hi || hi >= int64(base.Width()) {
				return nil, fmt.Errorf("line %d: part-select [%d:%d] out of range (width %d)", v.Line, hi, lo, base.Width())
			}
			return rtl.SliceE(base, int(hi), int(lo)), nil
		}
		if c, err := e.evalConst(v.Index, sc); err == nil {
			if c < 0 || c >= int64(base.Width()) {
				return nil, fmt.Errorf("line %d: bit %d out of range (width %d)", v.Line, c, base.Width())
			}
			return rtl.Bit(base, int(c)), nil
		}
		idx, err := e.expr(v.Index, sc, env, 0)
		if err != nil {
			return nil, err
		}
		return rtl.IndexE(base, idx), nil
	case *Unary:
		a, err := e.expr(v.X, sc, env, 0)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "~":
			return rtl.Not(a), nil
		case "-":
			return rtl.Neg(a), nil
		case "!":
			return rtl.LNot(a), nil
		case "&":
			return rtl.RedAnd(a), nil
		case "|":
			return rtl.RedOr(a), nil
		case "^":
			return rtl.RedXor(a), nil
		case "~|":
			return rtl.LNot(rtl.RedOr(a)), nil
		case "~&":
			return rtl.LNot(rtl.RedAnd(a)), nil
		case "~^":
			return rtl.LNot(rtl.RedXor(a)), nil
		}
		return nil, fmt.Errorf("line %d: unsupported unary %q", v.Line, v.Op)
	case *Binary:
		a, err := e.expr(v.X, sc, env, 0)
		if err != nil {
			return nil, err
		}
		b, err := e.expr(v.Y, sc, env, 0)
		if err != nil {
			return nil, err
		}
		if f, ok := binOps[v.Op]; ok {
			return f(a, b), nil
		}
		return nil, fmt.Errorf("line %d: unsupported binary %q", v.Line, v.Op)
	case *Cond:
		c, err := e.expr(v.Cond, sc, env, 0)
		if err != nil {
			return nil, err
		}
		t, err := e.expr(v.T, sc, env, want)
		if err != nil {
			return nil, err
		}
		f, err := e.expr(v.F, sc, env, want)
		if err != nil {
			return nil, err
		}
		w := max(t.Width(), f.Width())
		return rtl.MuxE(c, rtl.Resize(t, w), rtl.Resize(f, w)), nil
	case *Concat:
		parts := make([]rtl.Expr, 0, len(v.Parts))
		for _, p := range v.Parts {
			pe, err := e.expr(p, sc, env, 0)
			if err != nil {
				return nil, err
			}
			parts = append(parts, pe)
		}
		return rtl.Cat(parts...), nil
	case *Repeat:
		n, err := e.evalConst(v.Count, sc)
		if err != nil {
			return nil, fmt.Errorf("line %d: replication count must be constant: %w", v.Line, err)
		}
		inner, err := e.expr(v.X, sc, env, 0)
		if err != nil {
			return nil, err
		}
		// n > 64 first: n*width could overflow past the width test.
		if n < 1 || n > 64 || int(n)*inner.Width() > 64 {
			return nil, fmt.Errorf("line %d: replication {%d{...}} exceeds 64 bits", v.Line, n)
		}
		parts := make([]rtl.Expr, n)
		for i := range parts {
			parts[i] = inner
		}
		return rtl.Cat(parts...), nil
	case *Fill:
		if want == 0 {
			return nil, fmt.Errorf("line %d: (others => ...) is only supported as a direct assignment source", v.Line)
		}
		if v.One {
			return rtl.C(rtl.Mask(want), want), nil
		}
		return rtl.C(0, want), nil
	case *Width:
		n, err := e.evalConst(v.W, sc)
		if err != nil {
			return nil, fmt.Errorf("line %d: width must be constant: %w", v.Line, err)
		}
		if n < 1 || n > 64 {
			return nil, fmt.Errorf("line %d: width %d out of range", v.Line, n)
		}
		a, err := e.expr(v.X, sc, env, 0)
		if err != nil {
			return nil, err
		}
		return rtl.Resize(a, int(n)), nil
	}
	return nil, fmt.Errorf("unsupported expression %T", x)
}

// binOps builds each binary operator of the tree's vocabulary.
var binOps = map[string]func(a, b rtl.Expr) rtl.Expr{
	"+": rtl.Add, "-": rtl.Sub, "*": rtl.MulE, "/": rtl.DivE, "%": rtl.ModE,
	"&": rtl.AndE, "|": rtl.OrE, "^": rtl.XorE,
	"<<": rtl.Shl, "<<<": rtl.Shl, ">>": rtl.Shr, ">>>": rtl.Sra,
	"==": rtl.Eq, "===": rtl.Eq, "!=": rtl.Ne, "!==": rtl.Ne,
	"<": rtl.Lt, "<=": rtl.Le, ">": rtl.Gt, ">=": rtl.Ge,
	"&&": rtl.LAnd, "||": rtl.LOr,
}
