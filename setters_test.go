package rpivideo_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// unsetFields are the exported struct fields under internal/ that no
// non-test file of the module writes, each with who sets them instead. A
// field nothing sets is an option nobody can reach: delete it, make it a
// constant, or say here who sets it.
var unsetFields = map[string]string{
	"cell.RLFConfig.Enabled":         "filled by cell.DefaultRLFConfig, which bench/ calls; goes with ROADMAP item 4",
	"cell.RLFConfig.HOFailureHET":    "filled by cell.DefaultRLFConfig, which bench/ calls; goes with ROADMAP item 4",
	"cell.RLFConfig.HOFailureProb":   "filled by cell.DefaultRLFConfig, which bench/ calls; goes with ROADMAP item 4",
	"cell.RLFConfig.QinDBm":          "filled by cell.DefaultRLFConfig, which bench/ calls; goes with ROADMAP item 4",
	"cell.RLFConfig.QoutDBm":         "filled by cell.DefaultRLFConfig, which bench/ calls; goes with ROADMAP item 4",
	"cell.RLFConfig.ReestablishMax":  "filled by cell.DefaultRLFConfig, which bench/ calls; goes with ROADMAP item 4",
	"cell.RLFConfig.ReestablishMin":  "filled by cell.DefaultRLFConfig, which bench/ calls; goes with ROADMAP item 4",
	"cell.RLFConfig.T310":            "filled by cell.DefaultRLFConfig, which bench/ calls; goes with ROADMAP item 4",
	"cell.RLFConfig.T311":            "filled by cell.DefaultRLFConfig, which bench/ calls; goes with ROADMAP item 4",
	"core.Config.TraceCap":           "read by bench/; goes with ROADMAP item 4",
	"core.FleetConfig.Spread":        "read by bench/; goes with ROADMAP item 4",
	"fault.Config.FreezeQueue":       "read by bench/; goes with ROADMAP item 4",
	"fault.Config.StaleAfter":        "read by bench/; goes with ROADMAP item 4",
	"fault.Config.WatchdogTimeout":   "read by bench/; goes with ROADMAP item 4",
	"repair.Config.TickInterval":     "read by bench/; goes with ROADMAP item 4",
	"video.SenderConfig.Encoder":     "read by bench/; goes with ROADMAP item 4",
	"video.SenderConfig.PayloadType": "read by bench/; goes with ROADMAP item 4",
	"video.SenderConfig.SSRC":        "read by bench/; goes with ROADMAP item 4",
	"video.EncoderConfig.FPS":        "read by bench/; goes with ROADMAP item 4",
	"cc.Ack.TransportSeq":            "set by bench/; goes with ROADMAP item 4",
	"cc.SentPacket.TransportSeq":     "set by bench/; goes with ROADMAP item 4",
	"dist.Config.Metrics":            "set by bench/; goes with ROADMAP item 4",
	"dist.Config.Runs":               "set by bench/; goes with ROADMAP item 4",
	"experiments.DistSpec.Scenario":  "set by bench/; goes with ROADMAP item 4",
	"experiments.DistSpec.Seed":      "set by bench/; goes with ROADMAP item 4",
	"metrics.sketchJSON.Buckets":     "written by encoding/json",
	"metrics.sketchJSON.Count":       "written by encoding/json",
	"metrics.sketchJSON.Max":         "written by encoding/json",
	"metrics.sketchJSON.Min":         "written by encoding/json",
	"metrics.sketchJSON.Neg":         "written by encoding/json",
	"metrics.sketchJSON.Sum":         "written by encoding/json",
	"metrics.sketchJSON.Zero":        "written by encoding/json",
	"obs.jsonlLine.Aux":              "written by encoding/json",
	"obs.jsonlLine.Ctrl":             "written by encoding/json",
	"obs.jsonlLine.Dir":              "written by encoding/json",
	"obs.jsonlLine.Dropped":          "written by encoding/json",
	"obs.jsonlLine.DurationUs":       "written by encoding/json",
	"obs.jsonlLine.Events":           "written by encoding/json",
	"obs.jsonlLine.Kind":             "written by encoding/json",
	"obs.jsonlLine.Label":            "written by encoding/json",
	"obs.jsonlLine.Rtx":              "written by encoding/json",
	"obs.jsonlLine.Run":              "written by encoding/json",
	"obs.jsonlLine.Seed":             "written by encoding/json",
	"obs.jsonlLine.Seq":              "written by encoding/json",
	"obs.jsonlLine.TUs":              "written by encoding/json",
	"obs.jsonlLine.V":                "written by encoding/json",
}

// TestEveryExportedFieldHasASetter lists every exported, named field of a
// struct type declared under internal/ that no non-test file of the module
// writes, bench/ aside. A write is an assignment to the field (x.F = v, also
// through x.F.G or x.F[i]), a composite-literal key (T{F: v}), a positional
// composite literal of the type, &x.F, x.F++ / x.F--, or a call of a
// pointer-receiver method on the addressable field (x.F.M() takes &x.F).
// Fields resolve through go/types, so a write counts for the one field it
// selects.
//
// Defaulting code is not a setter: a write inside a defaults, withDefaults
// or WithDefaults method, or inside an argument-less Default…() function,
// does not count for the fields of its own package. Such a field only ever
// holds the value its package gave it, which is a constant. Per-input
// tables (DefaultSignalConfigFor(env)) take an argument and do count.
//
// The list must equal unsetFields: a new field nothing sets fails the
// build, and so does an entry that has gained a setter. An entry that says
// bench/ reads it must be used by bench/, and one that says bench/ sets it
// must be written there.
func TestEveryExportedFieldHasASetter(t *testing.T) {
	l := loadGates(t)

	fields := map[*types.Var]string{} // field → "pkg.Type.Field"
	perPkg := map[string][2]int{}     // exported fields, of them in …Config types
	var total [2]int
	for _, p := range l.pkgs {
		if !p.inInternal() {
			continue
		}
		for _, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			inConfig := 0
			if strings.HasSuffix(tn.Name(), "Config") {
				inConfig = 1
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() {
					continue
				}
				pkg := p.types.Name()
				fields[f] = pkg + "." + tn.Name() + "." + f.Name()
				n := perPkg[pkg]
				perPkg[pkg] = [2]int{n[0] + 1, n[1] + inConfig}
				total[0], total[1] = total[0]+1, total[1]+inConfig
			}
		}
	}

	written := map[*types.Var]bool{}     // by the module
	benchWrites := map[*types.Var]bool{} // by bench/
	benchUses := map[*types.Var]bool{}
	benchNames := map[string]bool{} // functions bench/ calls, by gateKey
	for _, p := range l.pkgs {
		if !p.bench {
			walkWrites(p, func(f *types.Var) { written[f] = true })
			continue
		}
		walkWrites(p, func(f *types.Var) { benchWrites[f] = true })
		for _, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Var:
				if o.IsField() {
					benchUses[o.Origin()] = true
				}
			case *types.Func:
				if o.Pkg() != nil {
					benchNames[gateKey(o)] = true
				}
			}
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

	var unset []string
	for f, key := range fields {
		if written[f] {
			continue
		}
		unset = append(unset, key)
		switch reason := unsetFields[key]; {
		case strings.HasPrefix(reason, "read by bench/") && !benchUses[f]:
			t.Errorf("%s is listed as read by bench/, but bench/ does not use it", key)
		case strings.HasPrefix(reason, "set by bench/") && !benchWrites[f]:
			t.Errorf("%s is listed as set by bench/, but bench/ does not write it", key)
		case strings.HasPrefix(reason, "filled by "):
			if fn, _, _ := strings.Cut(strings.TrimPrefix(reason, "filled by "), ","); !benchNames[fn] {
				t.Errorf("%s is listed as filled by %s, which bench/ calls, but bench/ does not call it", key, fn)
			}
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

// walkWrites hands set every struct field p's files write (see
// TestEveryExportedFieldHasASetter), as the field of the generic type's
// origin where the struct is an instance.
func walkWrites(p *gatePkg, set func(*types.Var)) {
	info := p.info
	// own is true inside defaulting code, whose writes to the fields of
	// p's own types do not count.
	own := false
	write := func(f *types.Var) {
		f = f.Origin()
		if !own || f.Pkg() != p.types {
			set(f)
		}
	}
	// through marks every field selected on the way to a written location.
	var through func(e ast.Expr)
	through = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				write(sel.Obj().(*types.Var))
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
		case *ast.SelectorExpr:
			// A pointer-receiver method on an addressable value takes its
			// address.
			sel := info.Selections[x]
			if sel == nil || sel.Kind() != types.MethodVal {
				break
			}
			recv := sel.Obj().Type().(*types.Signature).Recv().Type()
			if _, ptr := recv.(*types.Pointer); !ptr {
				break
			}
			if _, ptr := info.Types[x.X].Type.Underlying().(*types.Pointer); !ptr {
				through(x.X)
			}
		case *ast.CompositeLit:
			typ := info.Types[x].Type
			if ptr, ok := typ.Underlying().(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range x.Elts {
				kv, keyed := el.(*ast.KeyValueExpr)
				if !keyed {
					write(st.Field(i))
					continue
				}
				if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
					write(f)
				}
			}
		}
		return true
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			own = ok && defaulting(fn)
			ast.Inspect(d, visit)
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
