package rpivideo_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// A typed load of the module's non-test Go files and of bench/ (its own
// module, which replaces rpivideo with this tree), shared by the API gates:
// TestEveryExportedFieldHasASetter, TestEveryExportedNameHasAReader and
// TestEveryFieldHasAReader.
//
// Module packages are type-checked from their directories in import order;
// the standard library through the source importer, so the load needs no
// export data and no network. Files are chosen by the default build
// constraints, as `go build` chooses them. A file the `go test -overlay`
// file named in RPIVIDEO_OVERLAY replaces is read from its replacement, so
// the mutant catalogue's gate mutants are what the gates check.

// gatePkg is one type-checked package of the load.
type gatePkg struct {
	path  string // import path
	bench bool   // in bench/
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// inInternal reports whether the package is declared under internal/.
func (p *gatePkg) inInternal() bool {
	return strings.HasPrefix(p.path, "rpivideo/internal/")
}

type gateLoad struct {
	pkgs []*gatePkg // in import order
	std  types.Importer
}

var (
	gateOnce   sync.Once
	gateLoaded *gateLoad
	gateErr    error
)

// loadGates type-checks the module and bench/ once per test binary.
func loadGates(t *testing.T) *gateLoad {
	t.Helper()
	gateOnce.Do(func() { gateLoaded, gateErr = loadModule() })
	if gateErr != nil {
		t.Fatal(gateErr)
	}
	return gateLoaded
}

func loadModule() (*gateLoad, error) {
	var overlay struct{ Replace map[string]string }
	if path := os.Getenv("RPIVIDEO_OVERLAY"); path != "" {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, &overlay); err != nil {
			return nil, err
		}
	}
	l, fset := &gateLoad{}, token.NewFileSet()
	byPath := map[string]*gatePkg{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "out") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		p := &gatePkg{path: modulePath(dir), bench: dir == "bench" || strings.HasPrefix(dir, "bench"+string(filepath.Separator))}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
				if err != nil {
					return err
				}
				continue
			}
			path := filepath.Join(dir, name)
			var src any // nil: the file itself
			if abs, err := filepath.Abs(path); err == nil && overlay.Replace[abs] != "" {
				if src, err = os.ReadFile(overlay.Replace[abs]); err != nil {
					return err
				}
			}
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		if len(p.files) > 0 {
			byPath[p.path] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Order the packages so that each comes after every module package
	// it imports.
	done := map[string]bool{}
	var visit func(p *gatePkg)
	visit = func(p *gatePkg) {
		if done[p.path] {
			return
		}
		done[p.path] = true
		for _, f := range p.files {
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				if dep, ok := byPath[path]; ok {
					visit(dep)
				}
			}
		}
		l.pkgs = append(l.pkgs, p)
	}
	paths := make([]string, 0, len(byPath))
	for path := range byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		visit(byPath[path])
	}

	l.std = importer.ForCompiler(fset, "source", nil)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := byPath[path]; ok {
			return p.types, nil
		}
		return l.std.Import(path)
	})
	for _, p := range l.pkgs {
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		if p.types, err = conf.Check(p.path, fset, p.files, p.info); err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", p.path, err)
		}
	}
	return l, nil
}

// modulePath is the import path of the package in dir, relative to the
// module root; bench/ is the module rpivideo/bench.
func modulePath(dir string) string {
	if dir == "." {
		return "rpivideo"
	}
	return "rpivideo/" + filepath.ToSlash(dir)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// gateKey names an object of package pkg the way the allowlists do:
// "pkg.Name", "pkg.Type.Field", "pkg.Type.Method" or "pkg.(*Type).Method".
func gateKey(obj types.Object) string {
	pkg := obj.Pkg().Name()
	switch o := obj.(type) {
	case *types.Func:
		sig := o.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil {
			if ptr, ok := recv.Type().(*types.Pointer); ok {
				return fmt.Sprintf("%s.(*%s).%s", pkg, typeName(ptr.Elem()), o.Name())
			}
			return fmt.Sprintf("%s.%s.%s", pkg, typeName(recv.Type()), o.Name())
		}
	}
	return pkg + "." + obj.Name()
}

// typeName is the bare name of a named (possibly generic) type.
func typeName(t types.Type) string {
	switch n := t.(type) {
	case *types.Named:
		return n.Obj().Name()
	case *types.Alias:
		return n.Obj().Name()
	}
	return t.String()
}
