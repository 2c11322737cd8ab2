package gem5rtl

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// docPackages are the packages whose every exported symbol must carry a doc
// comment: the kernel packages (internal/sim, internal/port), whose exported
// API documents the scheduling and packet-ownership contracts the rest of the
// simulator relies on, the RTL, device, profiler, service and flag
// packages built on them, and the differential tests' driver.
var docPackages = []string{
	"internal/sim", "internal/port", "internal/sweepd", "internal/rtlc", "internal/prof",
	"internal/rtlobject", "internal/nvdla", "internal/pmu", "internal/cli", "internal/hdl",
	"internal/conform",
}

// flagPackages are the packages whose command-line flags must each be
// mentioned as -name in one of flagDocs, so gem5rtl cannot grow an
// undocumented knob.
var (
	flagPackages = []string{"cmd/gem5rtl", "internal/cli"}
	flagDocs     = []string{"README.md", "EXPERIMENTS.md", "PERFORMANCE.md"}
)

// TestDocs is the documentation gate (make doccheck): no undocumented export
// in docPackages, no undocumented flag in flagPackages.
func TestDocs(t *testing.T) {
	findings := undocumentedExports(t, docPackages...)
	findings = append(findings, undocumentedFlags(t, flagDocs, flagPackages...)...)
	for _, f := range findings {
		t.Error(f)
	}
}

// TestDocsCatchPlantedFaults runs both checks on fixtures that each plant
// one fault among look-alikes the checks must let pass: an undocumented
// function beside documented declarations, unexported ones and a test file's
// exports; an undocumented flag beside a documented one whose name it
// contains.
func TestDocsCatchPlantedFaults(t *testing.T) {
	for _, c := range []struct {
		findings []string
		want     string
	}{
		{undocumentedExports(t, "testdata/doccheck/undocumented"),
			"exported function Undocumented has no doc comment"},
		{undocumentedFlags(t, []string{"testdata/doccheck/flagcmd/FLAGS.md"}, "testdata/doccheck/flagcmd"),
			"flag -undocumented is not documented"},
	} {
		if len(c.findings) != 1 || !strings.Contains(c.findings[0], c.want) {
			t.Errorf("findings %q, want exactly one reporting %q", c.findings, c.want)
		}
	}
}

// parseDir parses the non-test Go files of dir.
func parseDir(t testing.TB, fset *token.FileSet, dir string, mode parser.Mode) map[string]*ast.Package {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, mode)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// undocumentedExports reports every exported symbol in dirs without a doc
// comment. A doc comment on the enclosing var/const/type block satisfies
// every name the block declares; methods on unexported types are not part of
// the API.
func undocumentedExports(t testing.TB, dirs ...string) []string {
	var findings []string
	for _, dir := range dirs {
		fset := token.NewFileSet()
		for _, pkg := range parseDir(t, fset, dir, parser.ParseComments) {
			for _, file := range pkg.Files {
				report := func(pos token.Pos, kind, name string) {
					p := fset.Position(pos)
					findings = append(findings, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
						filepath.ToSlash(p.Filename), p.Line, kind, name))
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
			}
		}
	}
	return findings
}

// receiverExported reports whether a method's receiver type is itself
// exported; a function has no receiver and counts as exported.
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

// flagNameArg maps the flag-registration functions of package flag (and the
// identical methods on *flag.FlagSet) to the position of their name argument.
var flagNameArg = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "Int": 0, "Int64": 0,
	"String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1,
	"Int64Var": 1, "StringVar": 1, "TextVar": 1, "UintVar": 1,
	"Uint64Var": 1, "Var": 1,
}

// undocumentedFlags reports every flag registered in dirs that none of
// docFiles mentions. A registration is a call to a function or method named
// like a flag constructor whose name argument is a string literal. The
// receiver is not type-checked: a false negative would silently exempt a
// flag, which is the failure the audit exists to prevent.
func undocumentedFlags(t testing.TB, docFiles []string, dirs ...string) []string {
	var docs []string
	for _, f := range docFiles {
		buf, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(buf))
	}
	var findings []string
	for _, dir := range dirs {
		fset := token.NewFileSet()
		for _, pkg := range parseDir(t, fset, dir, 0) {
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
					if name := strings.Trim(lit.Value, `"`); !documented(docs, name) {
						p := fset.Position(call.Pos())
						findings = append(findings, fmt.Sprintf("%s:%d: flag -%s is not documented in %s",
							filepath.ToSlash(p.Filename), p.Line, name, strings.Join(docFiles, " or ")))
					}
					return true
				})
			}
		}
	}
	return findings
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
