// Package hdl is the language-neutral half of gem5rtl's HDL toolflow: one
// design tree that both front ends parse into (internal/verilog, the
// Verilator stand-in, and internal/vhdl, the GHDL stand-in) and one elaborator
// that flattens it into the internal/rtl intermediate representation.
//
// Each parser lowers its own language's syntax into the tree, so what
// differs between the languages arrives here as data: VHDL operator
// spellings become the Verilog-style operator vocabulary used below, a
// when/else chain becomes a Cond chain, the rising_edge clock gate is
// stripped and marks its process Clocked, the numeric_std casts become Width
// nodes, types become [msb:0] ranges, and (others => b) becomes a Fill node.
// The one semantic difference the languages keep is whether a process's
// reads see its own earlier assignments (Process.ReadsOwnWrites), true only
// for a Verilog combinational always block; it too is a field, not a branch.
package hdl

// Design is a parsed source file: its modules (VHDL: entities, each with
// its architecture), in source order.
type Design struct {
	Modules []*Module
}

// Module returns the named module, or nil.
func (d *Design) Module(name string) *Module {
	for _, m := range d.Modules {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Module is one module (VHDL: an entity and its architecture).
type Module struct {
	Name   string
	Params []Param // evaluated in order; a later one may use an earlier one
	Ports  []Port
	Nets   []Net
	Items  []Item
}

// Param is a parameter (VHDL: a generic or constant).
type Param struct {
	Name  string
	Value Expr // nil: a generic with no default, set only by an override
	Local bool // localparam or constant: not overridable
}

// Range is a [MSB:LSB] vector range; elaboration accepts LSB 0 only.
type Range struct{ MSB, LSB Expr }

// Port is one port; a nil Range is a single bit.
type Port struct {
	Name  string
	In    bool
	Range *Range
	Line  int
}

// Net declares a wire or register, or with Array set a memory of
// Range-wide words. Init is a register's initial value.
type Net struct {
	Name         string
	Range, Array *Range
	Init         Expr
	Line         int
}

// Item is a module-level item: *Assign (continuous), *Process or *Instance.
type Item interface{ item() }

// Process is a procedural block. A Clocked process runs at every posedge of
// the circuit's single clock, its targets registers; otherwise it is
// combinational. ReadsOwnWrites makes reads inside the process see the
// values it assigned earlier in the same pass (Verilog blocking semantics in
// a combinational always block); otherwise reads see the signals' current
// values.
type Process struct {
	Clocked, ReadsOwnWrites bool
	Body                    []Stmt
}

// Instance instantiates module Module as Name.
type Instance struct {
	Module, Name string
	Params       map[string]Expr // overrides
	Conns        map[string]Expr // port connections; nil Expr: unconnected
	Line         int
}

func (*Assign) item()   {}
func (*Process) item()  {}
func (*Instance) item() {}

// Stmt is a procedural statement.
type Stmt interface{ stmt() }

// Assign is an assignment, continuous as an Item and procedural as a Stmt.
// LHS is an *Ident or a *Select of one.
type Assign struct {
	LHS, RHS Expr
	Line     int
}

// If is if/else.
type If struct {
	Cond       Expr
	Then, Else []Stmt
}

// Case is case/endcase (VHDL: case/end case): the first matching arm wins.
type Case struct {
	Subject Expr
	Arms    []Arm
	Line    int
}

// Arm is one case arm; an empty Match is the default (VHDL: others).
type Arm struct {
	Match []Expr
	Body  []Stmt
}

// Null is an empty statement.
type Null struct{}

func (*Assign) stmt() {}
func (*If) stmt()     {}
func (*Case) stmt()   {}
func (*Null) stmt()   {}

// Expr is an expression node.
type Expr interface{ expr() }

// Num is a literal; Width 0 means unsized (32 bits, or 64 if it needs them).
type Num struct {
	Val   uint64
	Width int
}

// Ident names a parameter, signal or memory.
type Ident struct {
	Name string
	Line int
}

// Select is Base[Index] (a bit, or a memory word) or Base[MSB:LSB].
type Select struct {
	Base, Index, MSB, LSB Expr
	Line                  int
}

// Unary applies one of ~ ! - & | ^ ~& ~| ~^ (the last six reductions).
type Unary struct {
	Op   string
	X    Expr
	Line int
}

// Binary applies one of + - * / % ** & | ^ << <<< >> >>> == === != !== < <=
// > >= && ||.
type Binary struct {
	Op   string
	X, Y Expr
	Line int
}

// Cond is Cond ? T : F.
type Cond struct{ Cond, T, F Expr }

// Concat is {Parts[0], Parts[1], ...}, most significant first.
type Concat struct{ Parts []Expr }

// Repeat is {Count{X}}.
type Repeat struct {
	Count, X Expr
	Line     int
}

// Fill is every bit One or every bit zero, as wide as the target it is
// assigned to.
type Fill struct {
	One  bool
	Line int
}

// Width is X zero-extended or truncated to W bits.
type Width struct {
	X, W Expr
	Line int
}

func (*Num) expr()    {}
func (*Ident) expr()  {}
func (*Select) expr() {}
func (*Unary) expr()  {}
func (*Binary) expr() {}
func (*Cond) expr()   {}
func (*Concat) expr() {}
func (*Repeat) expr() {}
func (*Fill) expr()   {}
func (*Width) expr()  {}
