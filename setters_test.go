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
	"cell.RLFConfig.Enabled":         "read by bench/; goes with ROADMAP item 4",
	"cell.RLFConfig.HOFailureHET":    "read by bench/; goes with ROADMAP item 4",
	"cell.RLFConfig.HOFailureProb":   "read by bench/; goes with ROADMAP item 4",
	"cell.RLFConfig.QinDBm":          "read by bench/; goes with ROADMAP item 4",
	"cell.RLFConfig.QoutDBm":         "read by bench/; goes with ROADMAP item 4",
	"cell.RLFConfig.ReestablishMax":  "read by bench/; goes with ROADMAP item 4",
	"cell.RLFConfig.ReestablishMin":  "read by bench/; goes with ROADMAP item 4",
	"cell.RLFConfig.T310":            "read by bench/; goes with ROADMAP item 4",
	"cell.RLFConfig.T311":            "read by bench/; goes with ROADMAP item 4",
	"core.Config.TraceCap":           "read by bench/; goes with ROADMAP item 4",
	"core.FleetConfig.Spread":        "read by bench/; goes with ROADMAP item 4",
	"fault.Config.FreezeQueue":       "read by bench/; goes with ROADMAP item 4",
	"fault.Config.StaleAfter":        "read by bench/; goes with ROADMAP item 4",
	"fault.Config.WatchdogTimeout":   "read by bench/; goes with ROADMAP item 4",
	"repair.Config.TickInterval":     "read by bench/; goes with ROADMAP item 4",
	"video.SenderConfig.Encoder":     "read by bench/; goes with ROADMAP item 4",
	"dist.Config.Lease":              "defaulted by withDefaults; goes with ROADMAP item 12",
	"dist.Config.RetryCap":           "defaulted by withDefaults; goes with ROADMAP item 12",
	"core.FleetResult.PerUAVGoodput": "filled by its pointer-receiver Add in RunFleet",
	"metrics.sketchJSON.Buckets":     "written by encoding/json",
	"metrics.sketchJSON.Neg":         "written by encoding/json",
	"metrics.sketchJSON.Sum":         "written by encoding/json",
	"metrics.sketchJSON.Zero":        "written by encoding/json",
	"obs.jsonlLine.DurationUs":       "written by encoding/json",
	"obs.jsonlLine.Rtx":              "written by encoding/json",
	"obs.jsonlLine.Run":              "written by encoding/json",
	"obs.jsonlLine.TUs":              "written by encoding/json",
}

// TestEveryExportedFieldHasASetter parses the module's non-test Go files
// (bench/, its own module, aside) and lists every exported field of a
// struct type declared under internal/ that none of them writes. A write is
// an assignment to the field (x.F = v, also through x.F.G or x.F[i]), a
// composite-literal key (T{F: v}), a positional composite literal of the
// type, &x.F, or x.F++ / x.F--. Composite literals are matched by their
// type (through type aliases); every other write, and a literal whose type
// is elided, by field name alone, so it counts for every field of that name.
//
// Defaulting code is not a setter: a write inside a defaults, withDefaults
// or WithDefaults method, or inside an argument-less Default…() function,
// does not count for the fields of its own package. Such a field only ever
// holds the value its package gave it, which is a constant. Per-input
// tables (DefaultSignalConfigFor(env)) take an argument and do count.
//
// The list must equal unsetFields: a new field nothing sets fails the
// build, and so does an entry that has gained a setter.
func TestEveryExportedFieldHasASetter(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	checked := map[*ast.File]bool{} // the files under internal/
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
		checked[f] = strings.HasPrefix(filepath.ToSlash(path), "internal/")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Exported fields of the struct types declared under internal/, keyed
	// "pkg.Type.Field" and listed by name and by "pkg.Type"; every struct
	// type of the module; and each type alias by "pkg.Alias".
	fields := map[string]string{}   // "pkg.Type.Field" → pkg
	byName := map[string][]string{} // field name → keys
	byType := map[string][]string{} // "pkg.Type" → keys
	structs := map[string]bool{}    // "pkg.Type"
	aliases := map[string]string{}  // "pkg.Alias" → "pkg.Type"
	for _, f := range files {
		pkg := f.Name.Name
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			typ := pkg + "." + ts.Name.Name
			if ts.Assign.IsValid() {
				aliases[typ] = typeKey(pkg, ts.Type)
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			structs[typ] = true
			if !checked[f] {
				return true
			}
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					if !name.IsExported() {
						continue
					}
					key := typ + "." + name.Name
					fields[key] = pkg
					byName[name.Name] = append(byName[name.Name], key)
					byType[typ] = append(byType[typ], key)
				}
			}
			return true
		})
	}
	resolve := func(typ string) string {
		for aliases[typ] != "" {
			typ = aliases[typ]
		}
		return typ
	}

	written := map[string]bool{}
	// defaults is the package whose defaulting code is being walked, ""
	// outside it. A selector write there is taken to be to a field of the
	// package's own types, so it counts for no field.
	var defaults string
	set := func(key string) {
		if pkg, ok := fields[key]; ok && pkg != defaults {
			written[key] = true
		}
	}
	// through marks every field selected on the way to a written location.
	var through func(e ast.Expr)
	through = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if defaults == "" {
				for _, key := range byName[x.Sel.Name] {
					set(key)
				}
			}
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
		pkg := f.Name.Name
		elided := map[*ast.CompositeLit]ast.Expr{} // element literal → its type
		visit := func(n ast.Node) bool {
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
				texpr := x.Type
				if texpr == nil {
					texpr = elided[x]
				}
				typ := resolve(typeKey(pkg, texpr))
				for _, el := range x.Elts {
					kv, keyed := el.(*ast.KeyValueExpr)
					val := el
					if keyed {
						val = kv.Value
					}
					if lit, ok := val.(*ast.CompositeLit); ok && lit.Type == nil {
						elided[lit] = elemType(texpr)
					}
					if !keyed {
						for _, key := range byType[typ] {
							set(key)
						}
						continue
					}
					name, ok := kv.Key.(*ast.Ident)
					switch {
					case !ok:
					case structs[typ]:
						set(typ + "." + name.Name)
					case elemType(texpr) == nil && defaults == "":
						// A literal of a type the module does not declare.
						for _, key := range byName[name.Name] {
							set(key)
						}
					}
				}
			}
			return true
		}
		for _, d := range f.Decls {
			defaults = ""
			if fn, ok := d.(*ast.FuncDecl); ok && defaulting(fn) {
				defaults = pkg
			}
			ast.Inspect(d, visit)
		}
	}

	var unset []string
	perPkg := map[string][2]int{} // exported fields, of them in …Config types
	var total [2]int
	for key, pkg := range fields {
		inConfig := 0
		if strings.HasSuffix(strings.Split(key, ".")[1], "Config") {
			inConfig = 1
		}
		n := perPkg[pkg]
		perPkg[pkg] = [2]int{n[0] + 1, n[1] + inConfig}
		total[0], total[1] = total[0]+1, total[1]+inConfig
		if !written[key] {
			unset = append(unset, key)
		}
	}
	pkgs := make([]string, 0, len(perPkg))
	for pkg := range perPkg {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		t.Logf("%-12s %4d exported fields checked, %3d in …Config types", pkg, perPkg[pkg][0], perPkg[pkg][1])
	}
	t.Logf("%-12s %4d exported fields checked, %3d in …Config types", "total", total[0], total[1])

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

// defaulting reports whether fn is defaulting code: a defaults,
// withDefaults or WithDefaults method, or an argument-less Default…()
// function.
func defaulting(fn *ast.FuncDecl) bool {
	name := fn.Name.Name
	if fn.Recv != nil {
		return name == "defaults" || name == "withDefaults" || name == "WithDefaults"
	}
	return strings.HasPrefix(name, "Default") && fn.Type.Params.NumFields() == 0
}

// elemType is the element type of an array, slice or map type expression,
// nil for any other.
func elemType(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.ArrayType:
		return x.Elt
	case *ast.MapType:
		return x.Value
	}
	return nil
}

// typeKey is "pkg.Type" for a type expression written in package pkg, ""
// for one that names no declared type (an elided or anonymous type).
func typeKey(pkg string, e ast.Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *ast.Ident:
		return pkg + "." + x.Name
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return id.Name + "." + x.Sel.Name
		}
	case *ast.StarExpr:
		return typeKey(pkg, x.X)
	}
	return ""
}
