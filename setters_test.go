package rpivideo_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unsetFields are the exported struct fields under internal/ that no
// non-test file of the module writes, each with who sets them instead. A
// field nothing sets is an option nobody can reach: delete it, make it a
// constant, or say here who sets it.
var unsetFields = map[string]string{
	"core.Config.TraceCap":           "read by bench/; goes with ROADMAP item 4",
	"core.FleetConfig.Spread":        "read by bench/; goes with ROADMAP item 4",
	"fault.Config.FreezeQueue":       "read by bench/; goes with ROADMAP item 4",
	"fault.Config.StaleAfter":        "read by bench/; goes with ROADMAP item 4",
	"fault.Config.WatchdogTimeout":   "read by bench/; goes with ROADMAP item 4",
	"core.FleetResult.PerUAVGoodput": "filled by its pointer-receiver Add in RunFleet",
	"metrics.sketchJSON.Neg":         "written by encoding/json",
	"metrics.sketchJSON.Sum":         "written by encoding/json",
	"metrics.sketchJSON.Zero":        "written by encoding/json",
	"obs.jsonlLine.Rtx":              "written by encoding/json",
}

// TestEveryExportedFieldHasASetter parses the module's non-test Go files
// (bench/, its own module, aside) and lists every exported field of a
// struct type declared under internal/ that none of them writes. A write is
// an assignment to the field (x.F = v, also through x.F.G or x.F[i]), a
// composite-literal key (T{F: v}), a positional composite literal of the
// type, &x.F, or x.F++ / x.F--. Fields are matched by name alone, without
// type information, so a write to any field of that name counts. The list
// must equal unsetFields: a new field nothing sets fails the build, and so
// does an entry that has gained a setter.
func TestEveryExportedFieldHasASetter(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	var declared []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || strings.HasPrefix(d.Name(), ".") && path != "." || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			declared = append(declared, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Exported fields of the struct types declared under internal/, and
	// every struct type's fields by type name for positional literals.
	fields := map[string]string{} // "pkg.Type.Field" → field name
	byType := map[string][]string{}
	for _, f := range declared {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					byType[ts.Name.Name] = append(byType[ts.Name.Name], name.Name)
					if name.IsExported() {
						fields[f.Name.Name+"."+ts.Name.Name+"."+name.Name] = name.Name
					}
				}
			}
			return true
		})
	}

	written := map[string]bool{}
	// through marks every field selected on the way to a written location.
	var through func(e ast.Expr)
	through = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			written[x.Sel.Name] = true
			through(x.X)
		case *ast.IndexExpr:
			through(x.X)
		case *ast.StarExpr:
			through(x.X)
		case *ast.ParenExpr:
			through(x.X)
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					through(lhs)
				}
			case *ast.IncDecStmt:
				through(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					through(x.X)
				}
			case *ast.CompositeLit:
				for _, el := range x.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						for _, name := range byType[typeName(x.Type)] {
							written[name] = true
						}
						break
					}
					if key, ok := kv.Key.(*ast.Ident); ok {
						written[key.Name] = true
					}
				}
			}
			return true
		})
	}

	var unset []string
	for key, name := range fields {
		if !written[name] {
			unset = append(unset, key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		if _, ok := unsetFields[key]; !ok {
			t.Errorf("%s: exported field that no non-test code sets", key)
		}
	}
	for key := range unsetFields {
		if i := sort.SearchStrings(unset, key); i == len(unset) || unset[i] != key {
			t.Errorf("%s is listed as unset, but it is set now or gone: drop it from unsetFields", key)
		}
	}
}

// typeName is the bare name of a composite literal's type, "" if it has
// none of its own.
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}
