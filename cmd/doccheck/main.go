// Command doccheck fails when an exported symbol lacks a doc comment. It
// backs the CI documentation gate for the kernel packages (internal/sim,
// internal/port), whose exported API documents scheduling and packet
// ownership contracts that the rest of the simulator relies on:
//
//	go run ./cmd/doccheck ./internal/sim ./internal/port
//
// Test files are exempt. A doc comment on the enclosing var/const/type
// block satisfies every name the block declares.
//
// With -flags it switches to the flag-reference audit: every command-line
// flag registered by the named package directories (flag.String and friends,
// including flags on subcommand FlagSets and the shared families in
// internal/cli) must be mentioned as -name in at least one of the listed
// documentation files, so a binary cannot grow an undocumented knob:
//
//	go run ./cmd/doccheck -flags README.md,EXPERIMENTS.md ./cmd/gem5rtl ./internal/cli
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	flagDocs := flag.String("flags", "", "comma-separated documentation files; audit that every flag registered by the package-dir arguments is mentioned in one of them")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: doccheck [-flags doc.md,...] <package-dir>...")
		os.Exit(2)
	}
	if *flagDocs != "" {
		auditFlags(strings.Split(*flagDocs, ","), flag.Args())
		return
	}
	bad := 0
	for _, dir := range flag.Args() {
		bad += checkDir(strings.TrimPrefix(dir, "./"))
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d exported symbols without doc comments\n", bad)
		os.Exit(1)
	}
}

// flagNameArg maps the flag-registration functions of package flag (and the
// identical methods on *flag.FlagSet) to the position of their name argument.
var flagNameArg = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "Int": 0, "Int64": 0,
	"String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1,
	"Int64Var": 1, "StringVar": 1, "TextVar": 1, "UintVar": 1,
	"Uint64Var": 1, "Var": 1,
}

// flagReg is one registered command-line flag and where it was registered.
type flagReg struct {
	name string
	pos  token.Position
}

// auditFlags exits non-zero when a flag registered by any of dirs is not
// documented in any of docFiles.
func auditFlags(docFiles, dirs []string) {
	var docs []string
	for _, f := range docFiles {
		buf, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(1)
		}
		docs = append(docs, string(buf))
	}
	bad := 0
	for _, dir := range dirs {
		for _, reg := range collectFlags(strings.TrimPrefix(dir, "./")) {
			if !documented(docs, reg.name) {
				fmt.Fprintf(os.Stderr, "%s:%d: flag -%s is not documented in %s\n",
					reg.pos.Filename, reg.pos.Line, reg.name, strings.Join(docFiles, " or "))
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented flags\n", bad)
		os.Exit(1)
	}
}

// collectFlags parses the command package in dir and returns every flag
// registration it finds: a call to a function or method named like a flag
// constructor whose name argument is a string literal. The receiver is not
// type-checked — inside a main package the registration names are
// unambiguous in practice, and a false negative here silently exempts a
// flag, which is the failure mode the audit exists to prevent.
func collectFlags(dir string) []flagReg {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
		os.Exit(1)
	}
	var regs []flagReg
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				idx, ok := flagNameArg[sel.Sel.Name]
				if !ok || len(call.Args) < idx+2 {
					return true
				}
				lit, ok := call.Args[idx].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				name := strings.Trim(lit.Value, `"`)
				regs = append(regs, flagReg{name, fset.Position(call.Pos())})
				return true
			})
		}
	}
	return regs
}

// documented reports whether -name appears in any doc, delimited so -out
// does not satisfy -output: the character after the name must not extend
// the flag word.
func documented(docs []string, name string) bool {
	needle := "-" + name
	for _, doc := range docs {
		for i := 0; ; {
			j := strings.Index(doc[i:], needle)
			if j < 0 {
				break
			}
			end := i + j + len(needle)
			if end == len(doc) || !flagWordChar(doc[end]) {
				return true
			}
			i = end
		}
	}
	return false
}

// flagWordChar reports whether c could extend a flag name.
func flagWordChar(c byte) bool {
	return c == '-' || c == '_' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

func checkDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
		os.Exit(1)
	}
	bad := 0
	for _, pkg := range pkgs {
		for path, file := range pkg.Files {
			bad += checkFile(fset, filepath.ToSlash(path), file)
		}
	}
	return bad
}

func checkFile(fset *token.FileSet, path string, file *ast.File) int {
	bad := 0
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		fmt.Fprintf(os.Stderr, "%s:%d: exported %s %s has no doc comment\n", path, p.Line, kind, name)
		bad++
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil && receiverExported(d) {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(name.Pos(), "value", name.Name)
						}
					}
				}
			}
		}
	}
	return bad
}

// receiverExported reports whether a method's receiver type is itself
// exported — methods on unexported types are not part of the package API.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}
