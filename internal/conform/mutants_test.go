//go:build mutants

package conform

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMutants plants each fault of testdata/mutants.json alone in a copy of
// the repository, replacing old, which must occur exactly once in file, with
// new, and runs each test the row names by itself: every one must fail. It is
// what `make mutants` runs, under the mutants build tag, so the plain test
// suite never builds it.
func TestMutants(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "mutants.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Name, File, Old, New, Package string
		Tests                         []string
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	tree := t.TempDir()
	if out, err := exec.Command("cp", "-R", filepath.Join("..", "..")+"/.", tree).CombinedOutput(); err != nil {
		t.Fatalf("copying the tree: %v\n%s", err, out)
	}
	for _, m := range rows {
		t.Run(m.Name, func(t *testing.T) {
			path := filepath.Join(tree, m.File)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(orig), m.Old); n != 1 {
				t.Fatalf("%s: old text occurs %d times, want exactly once", m.File, n)
			}
			if err := os.WriteFile(path, []byte(strings.Replace(string(orig), m.Old, m.New, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, orig, 0o644); err != nil {
					t.Fatal(err)
				}
			}()
			for _, name := range m.Tests {
				cmd := exec.Command("go", "test", "-count=1", "-json", "-timeout=10m", "-run", "^"+name+"$", "./"+m.Package)
				cmd.Dir = tree
				out, _ := cmd.CombinedOutput() // a killed mutant exits non-zero; the events say which test failed
				if failed(out, name) {
					t.Logf("killed by %s", name)
				} else {
					t.Errorf("survives %s:\n%s", name, out[max(0, len(out)-4096):])
				}
			}
		})
	}
}

// failed reports whether the test2json events in out record test as failed.
func failed(out []byte, test string) bool {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var ev struct{ Action, Test string }
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Test == test && ev.Action == "fail" {
			return true
		}
	}
	return false
}
