package hotline_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeNamesHaveCallers keeps hotline.go to the surface its callers
// use: every exported name it declares must be named by a cmd/ or
// examples/ program, a root test, a README.md/DESIGN.md snippet, or the
// signature of a facade function that is itself referenced.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "hotline.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	funcs := map[string]*ast.FuncType{}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			declared = append(declared, d.Name.Name)
			funcs[d.Name.Name] = d.Type
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					declared = append(declared, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declared = append(declared, n.Name)
					}
				}
			}
		}
	}

	used := map[string]bool{}
	var files []string
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rootTests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(files, rootTests...) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range hotlineSelectors(f) {
			used[name] = true
		}
	}

	docRef := regexp.MustCompile(`\bhotline\.([A-Z]\w*)`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docRef.FindAllStringSubmatch(string(text), -1) {
			used[m[1]] = true
		}
	}

	for name, typ := range funcs {
		if !used[name] {
			continue
		}
		ast.Inspect(typ, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				used[id.Name] = true
			}
			return true
		})
	}

	var unused []string
	for _, name := range declared {
		if token.IsExported(name) && !used[name] {
			unused = append(unused, name)
		}
	}
	if len(unused) > 0 {
		t.Errorf("hotline.go exports %d names no caller references: %s",
			len(unused), strings.Join(unused, ", "))
	}
}

// hotlineSelectors returns the Sel names of every selector on the file's
// import of the root hotline package.
func hotlineSelectors(f *ast.File) []string {
	local := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "hotline" {
			local = "hotline"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" {
		return nil
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
				names = append(names, sel.Sel.Name)
			}
		}
		return true
	})
	return names
}
