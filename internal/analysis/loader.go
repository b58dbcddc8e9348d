package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// A Package is one type-checked module package as the analyzers see it.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	// Files are the syntax trees handed to analyzers. For an augmented
	// load (LoadTests) they include the in-package _test.go files.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the `go list -json` subset the loader consumes.
type listPkg struct {
	ImportPath  string
	Name        string
	Dir         string
	Export      string
	Standard    bool
	ForTest     string
	GoFiles     []string
	TestGoFiles []string
	Module      *struct{ Path string }
}

// A Loader type-checks the module's packages from source, resolving
// standard-library imports from the compiler's export data (harvested
// with one `go list -deps -test -export -json` run). Checking every
// module package from source — rather than from its own export data —
// keeps type identities consistent when test-augmented packages and their
// importers meet in one analysis (the same reason go/packages does it).
type Loader struct {
	dir  string
	fset *token.FileSet

	export map[string]string   // std import path -> export data file
	mod    map[string]*listPkg // module import path -> metadata
	order  []string            // module packages in `go list` order

	checked map[string]*Package // plain (no test files) packages, memoised
	std     types.ImporterFrom
}

// NewLoader harvests package metadata and export data for the module
// rooted at dir (the repo root).
func NewLoader(dir string) (*Loader, error) {
	l := &Loader{
		dir:     dir,
		fset:    token.NewFileSet(),
		export:  make(map[string]string),
		mod:     make(map[string]*listPkg),
		checked: make(map[string]*Package),
	}
	// -deps -test: every transitive dependency including test-only ones;
	// -export: compile them so stdlib type info is readable offline.
	out, err := l.goList("-deps", "-test", "-export", "-json", "./...")
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		switch {
		case p.Standard:
			if p.Export != "" {
				l.export[p.ImportPath] = p.Export
			}
		case p.ForTest != "" || strings.HasSuffix(p.ImportPath, ".test"):
			// Test variants and synthesised test binaries: the loader
			// builds its own augmented packages from TestGoFiles.
		case p.Module != nil:
			if _, ok := l.mod[p.ImportPath]; !ok {
				cp := p
				l.mod[p.ImportPath] = &cp
				l.order = append(l.order, p.ImportPath)
			}
		}
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := l.export[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	}).(types.ImporterFrom)
	return l, nil
}

func (l *Loader) goList(args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = l.dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

// Import implements types.Importer over the mixed source/export world.
func (l *Loader) Import(path string) (*types.Package, error) {
	if _, ok := l.mod[path]; ok {
		pkg, err := l.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, l.dir, 0)
}

// Fset returns the shared file set all loaded syntax uses.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Load type-checks the named module package (non-test sources).
func (l *Loader) Load(path string) (*Package, error) { return l.check(path) }

// TestPackages returns the module packages carrying in-package _test.go
// files, in `go list` order — the candidate root set for test-driven
// checks like the hot-path/alloc-gate cross-check.
func (l *Loader) TestPackages() []string {
	var out []string
	for _, path := range l.order {
		if len(l.mod[path].TestGoFiles) > 0 {
			out = append(out, path)
		}
	}
	return out
}

// LoadAll type-checks every module package (non-test sources) — the
// hotline-vet gate's working set.
func (l *Loader) LoadAll() ([]*Package, error) {
	var out []*Package
	for _, path := range l.order {
		pkg, err := l.check(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadTests type-checks the named package with its in-package _test.go
// files folded in — a separate check from the plain package, never cached
// as an import target (only leaves consume it: the hot-path/alloc-gate
// cross-check reads test syntax through this).
func (l *Loader) LoadTests(path string) (*Package, error) {
	lp, ok := l.mod[path]
	if !ok {
		return nil, fmt.Errorf("analysis: unknown module package %q", path)
	}
	names := append(append([]string(nil), lp.GoFiles...), lp.TestGoFiles...)
	return l.checkFiles(path+" [tests]", lp.Name, lp.Dir, names)
}

func (l *Loader) check(path string) (*Package, error) {
	if pkg, ok := l.checked[path]; ok {
		return pkg, nil
	}
	lp := l.mod[path]
	if lp == nil {
		return nil, fmt.Errorf("analysis: unknown module package %q", path)
	}
	pkg, err := l.checkFiles(path, lp.Name, lp.Dir, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	l.checked[path] = pkg
	return pkg, nil
}

// checkFiles parses and type-checks one file set as package pkgPath.
func (l *Loader) checkFiles(pkgPath, name, dir string, names []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, fn), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", fn, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(pkgPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", pkgPath, typeErrs[0])
	}
	_ = name
	return &Package{
		PkgPath: pkgPath, Dir: dir, Fset: l.fset,
		Files: files, Types: tpkg, Info: info,
	}, nil
}

// LoadDir parses and type-checks an out-of-tree directory (an
// analysistest fixture under testdata/, invisible to `go list ./...`) as
// package pkgPath. Fixture files may import module packages — the
// markdirty/statslock fixtures exercise the real shard types.
func (l *Loader) LoadDir(dir, pkgPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: reading fixture dir: %w", err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	return l.checkFiles(pkgPath, "", dir, names)
}
