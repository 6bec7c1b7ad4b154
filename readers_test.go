package rpivideo_test

import (
	"go/ast"
	"go/build"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The reasons a name or field may stay without a production reader: bench/
// reads it (checked against bench/'s own uses), or tests need it as a hook,
// "a hook <pkg>'s tests need" naming the packages whose test files use it —
// that object, type-checked, not just a name like it.
// A field may also stay because bench/ sets it (checked against bench/'s
// writes): bench/ is frozen, so it cannot stop.
const (
	benchReason    = "read by bench/; goes with ROADMAP item 4"
	benchSetReason = "set by bench/; goes with ROADMAP item 4"
)

var hookReason = regexp.MustCompile(`^a hook [a-z]+'s?((, [a-z]+'s?)* and [a-z]+'s?)? tests need$`)

// unreadNames are the exported names, and the unexported functions and
// methods, under internal/ that no non-test file of the module reads, each
// with why it stays.
var unreadNames = map[string]string{
	"cell.NewMachine":                  benchReason,
	"cell.NewSignalModel":              benchReason,
	"core.(*FleetResult).WriteMetrics": benchReason,
	"dist.Run":                         benchReason,
	"dist.StartPipe":                   benchReason,
	"experiments.FoldDistShards":       benchReason,
	"link.New":                         benchReason,
	"obs.(*Tracer).Events":             benchReason,
	"obs.LogHistogram":                 benchReason,
	"repair.(*Detector).Tick":          benchReason,
	"rtp.(*CCFB).Marshal":              benchReason,
	"rtp.(*CCFBGenerator).Report":      benchReason,
	"rtp.(*TWCC).Marshal":              benchReason,
	"cc.(*SendQueue).Len":              "a hook core's, endpoint's and scream's tests need",
	"core.DropPooledBuffers":           "a hook experiments' tests need",
	"metrics.(*Sketch).Buckets":        "a hook core's tests need",
	"ordered.SetObserver":              "a hook core's and obs's tests need",
	"repair.(*Cache).Len":              "a hook core's and endpoint's tests need",
	"ring.(*Queue).Cap":                "a hook cc's, gcc's, link's and scream's tests need",
	"ring.(*SeqTable).Cap":             "a hook repair's and scream's tests need",
	"sim.(*Simulator).Run":             "a hook link's tests need",
	"video.(*Sender).PacketPool":       "a hook core's and endpoint's tests need",
}

// TestEveryExportedNameHasAReader lists every exported function, method,
// type, variable, constant and interface method, and every unexported
// function and method, declared under internal/ that no non-test file of
// the module uses, bench/ aside: code only tests reach goes too. A use inside the
// name's own declaration (a recursive call, a self-referencing type) does
// not count. Uses resolve through go/types: a generic method's use is one of
// its origin, and a method is read when its type implements an interface
// method of the same name that production code calls. Methods implementing
// fmt.Stringer, error, json.Marshaler or json.Unmarshaler are exempt: the
// standard library calls them.
//
// The list must equal unreadNames: a new unread name fails the build, and
// so does an entry that has gained a reader. An entry that says it is read
// by bench/ must be, and a hook must be used by the tests it names.
func TestEveryExportedNameHasAReader(t *testing.T) {
	l := loadGates(t)

	// Every declaration's span, so that a name's uses inside it do not
	// count for it.
	type span struct{ pos, end token.Pos }
	decls := map[types.Object]span{}
	for _, p := range l.pkgs {
		if !p.inInternal() {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decls[p.info.Defs[d.Name]] = span{d.Pos(), d.End()}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[p.info.Defs[s.Name]] = span{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								decls[p.info.Defs[name]] = span{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}

	readBy := map[types.Object]bool{}     // read by the module
	benchReads := map[types.Object]bool{} // read by bench/
	var ifaceCalls []*types.Func          // interface methods the module uses
	for _, p := range l.pkgs {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if s, ok := decls[obj]; ok && s.pos <= id.Pos() && id.Pos() < s.end {
				continue
			}
			if p.bench {
				benchReads[obj] = true
				continue
			}
			readBy[obj] = true
			if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
				ifaceCalls = append(ifaceCalls, fn)
			}
		}
	}

	exempt := exemptInterfaces(t, l)
	read := func(obj types.Object) bool {
		if readBy[obj] {
			return true
		}
		fn, ok := obj.(*types.Func)
		if !ok || fn.Type().(*types.Signature).Recv() == nil || isInterfaceMethod(fn) {
			return false
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		implements := func(iface *types.Interface) bool {
			return types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)
		}
		if iface, ok := exempt[fn.Name()]; ok && implements(iface) {
			return true
		}
		for _, call := range ifaceCalls {
			if call.Name() == fn.Name() && implements(receiverInterface(call)) {
				return true
			}
		}
		return false
	}

	var unread []string
	objs := map[string]types.Object{}
	benchRead := map[string]bool{}
	checked := 0
	check := func(obj types.Object) {
		if _, fn := obj.(*types.Func); !obj.Exported() && !fn {
			return
		}
		if checked++; read(obj) {
			return
		}
		key := gateKey(obj)
		unread = append(unread, key)
		objs[key] = obj
		benchRead[key] = benchReads[obj]
	}
	for _, p := range l.pkgs {
		if !p.inInternal() {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			check(obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				check(named.Method(i))
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					check(iface.ExplicitMethod(i))
				}
			}
		}
	}

	t.Logf("%d names checked, %d without a production reader", checked, len(unread))
	checkAllowlist(t, l, "unreadNames", unreadNames, unread, objs, benchRead, nil)
}

// checkAllowlist fails t unless list names exactly the keys found, each
// with an allowed reason: benchReason where benchRead says bench/ reads it,
// benchSetReason where benchSet says bench/ writes it, or "a hook <pkg>'s
// tests need" where the test files of every package it names use the object.
func checkAllowlist(t *testing.T, l *gateLoad, name string, list map[string]string, found []string, objs map[string]types.Object, benchRead, benchSet map[string]bool) {
	t.Helper()
	sort.Strings(found)
	for _, key := range found {
		reason, ok := list[key]
		switch {
		case !ok && benchRead[key]:
			t.Errorf("%s: no non-test code reads it but bench/", key)
		case !ok:
			t.Errorf("%s: no non-test code reads it", key)
		case reason == benchReason:
			if !benchRead[key] {
				t.Errorf("%s is listed as read by bench/, but bench/ does not read it", key)
			}
		case reason == benchSetReason && benchSet != nil:
			if !benchSet[key] {
				t.Errorf("%s is listed as set by bench/, but bench/ does not write it", key)
			}
		case !hookReason.MatchString(reason):
			t.Errorf("%s: reason %q is neither %q nor \"a hook <pkg>'s tests need\"", key, reason, benchReason)
		default:
			for _, pkg := range hookPkgs.FindAllStringSubmatch(reason, -1) {
				if !testsUse(t, l, pkg[1], objs[key]) {
					t.Errorf("%s: listed as a hook %s's tests need, but no test file of %s uses it", key, pkg[1], pkg[1])
				}
			}
		}
	}
	for key := range list {
		if i := sort.SearchStrings(found, key); i == len(found) || found[i] != key {
			t.Errorf("%s is listed as unread, but it is read now or gone: drop it from %s", key, name)
		}
	}
}

// hookPkgs picks the package names out of a hook reason.
var hookPkgs = regexp.MustCompile(`([a-z]+)'s?[ ,]`)

// testsUse reports whether a _test.go file of the internal/ package named
// pkg uses obj itself, not just a name like it.
func testsUse(t *testing.T, l *gateLoad, pkg string, obj types.Object) bool {
	t.Helper()
	uses, ok := l.testUses[pkg]
	if !ok {
		uses = map[token.Pos]bool{}
		for _, p := range l.pkgs {
			if p.inInternal() && p.types.Name() == pkg {
				testObjects(t, l, p, uses)
			}
		}
		l.testUses[pkg] = uses
	}
	return uses[obj.Pos()]
}

// testObjects type-checks p's test files on the load and marks in uses the
// declaring position of every object they use. The package's own test files
// are checked with its other files, and its external test files against
// that package, as go test builds them. A file's type errors are ignored:
// the objects of the test binary's other packages are the load's, so a
// value the test passes between the two builds of p may not type-check.
// Objects are matched by where they are declared, which both builds share.
func testObjects(t *testing.T, l *gateLoad, p *gatePkg, uses map[token.Pos]bool) {
	t.Helper()
	dir := strings.TrimPrefix(p.path, "rpivideo/")
	names, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var internal, external []*ast.File
	for _, name := range names {
		if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err != nil || !ok {
			if err != nil {
				t.Fatal(err)
			}
			continue
		}
		f, err := l.parse(name)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name == p.types.Name() {
			internal = append(internal, f)
		} else {
			external = append(external, f)
		}
	}
	// check type-checks files, of which tests are the test files.
	check := func(path string, files, tests []*ast.File, imp types.Importer) *types.Package {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp, Error: func(error) {}}
		pkg, _ := conf.Check(path, l.fset, files, info)
		for _, f := range tests {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
					uses[origin(info.Uses[id]).Pos()] = true
				}
				return true
			})
		}
		return pkg
	}
	tested := check(p.path, append(slices.Clip(p.files), internal...), internal, l.importer(nil))
	if len(external) > 0 {
		check(p.path+"_test", external, external, l.importer(map[string]*types.Package{p.path: tested}))
	}
}

// origin is the generic object an instantiated method or field comes from.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func isInterfaceMethod(fn *types.Func) bool {
	return receiverInterface(fn) != nil
}

// receiverInterface is the interface fn is a method of, nil for a concrete
// method or a function.
func receiverInterface(fn *types.Func) *types.Interface {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	iface, _ := recv.Type().Underlying().(*types.Interface)
	return iface
}

// exemptInterfaces are the interfaces whose methods the standard library
// calls, by method name: fmt.Stringer, error, json.Marshaler and
// json.Unmarshaler.
func exemptInterfaces(t *testing.T, l *gateLoad) map[string]*types.Interface {
	t.Helper()
	lookup := func(path, name string) *types.Interface {
		pkg, err := l.std.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		return pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface)
	}
	return map[string]*types.Interface{
		"String":        lookup("fmt", "Stringer"),
		"Error":         types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		"MarshalJSON":   lookup("encoding/json", "Marshaler"),
		"UnmarshalJSON": lookup("encoding/json", "Unmarshaler"),
	}
}

// unreadFields are the struct fields under internal/ that no non-test file
// of the module reads, each with why it stays.
var unreadFields = map[string]string{
	"core.FleetResult.Epoch":     benchReason,
	"video.Sender.FramesEncoded": benchReason,
	"cc.Ack.TransportSeq":        benchSetReason,
	"cc.SentPacket.TransportSeq": benchSetReason,
	"cell.SignalModel.evals":     "a hook cell's tests need",
	"core.FleetResult.SimEvents": "a hook experiments' tests need",
	"rtp.Depacketizer.live":      "a hook rtp's tests need",
	"rtp.PoolStats.Refs":         "a hook core's, endpoint's and rtp's tests need",
	"video.PlayedFrame.PlayedAt": "a hook core's and video's tests need",
}

// TestEveryFieldHasAReader lists every field, exported or not, of every
// struct type written in a non-test file under internal/ that no non-test
// file of the module reads, bench/ aside. A read is a use of the field,
// through go/types' Uses or Selections, that is none of these: the left side
// of =, := or an op-assign (x.F = v, x.F += v, and through an array element
// or a struct field held by value, x.F[i] = v or x.F.G = v), the operand of
// ++ or --, or a composite-literal key (T{F: v}). Selecting through an
// embedded field reads it. A struct copied or compared whole reads none of
// its fields. Structs with a json tag are exempt: encoding/json reads them.
//
// The list must equal unreadFields, with the reasons unreadNames allows or
// benchSetReason.
func TestEveryFieldHasAReader(t *testing.T) {
	l := loadGates(t)

	fields := map[*types.Var]string{} // field → "pkg.Type.field"
	for _, p := range l.pkgs {
		if p.inInternal() {
			structFields(p, func(f *types.Var, key string) { fields[f] = key })
		}
	}

	readBy := map[*types.Var]bool{}      // by the module
	benchReads := map[*types.Var]bool{}  // by bench/
	benchWrites := map[*types.Var]bool{} // by bench/
	for _, p := range l.pkgs {
		into := readBy
		if p.bench {
			into = benchReads
			walkWrites(p, func(f *types.Var) { benchWrites[f] = true })
		}
		walkReads(p, func(f *types.Var) { into[f.Origin()] = true })
	}

	var unread []string
	objs := map[string]types.Object{}
	benchRead, benchSet := map[string]bool{}, map[string]bool{}
	for f, key := range fields {
		if readBy[f] {
			continue
		}
		unread = append(unread, key)
		objs[key] = f
		benchRead[key], benchSet[key] = benchReads[f], benchWrites[f]
	}
	t.Logf("%d fields checked, %d without a production reader", len(fields), len(unread))
	checkAllowlist(t, l, "unreadFields", unreadFields, unread, objs, benchRead, benchSet)
}

// structFields hands each field of each struct type written in p's files,
// with its allowlist key: "pkg.Type.field" for a field of a named type, the
// enclosing type's or function's name and the field path for one of an
// anonymous struct. The fields of a struct with a json tag are skipped.
func structFields(p *gatePkg, each func(f *types.Var, key string)) {
	pkg := p.types.Name()
	var walk func(n ast.Node, name string)
	walk = func(root ast.Node, name string) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body != nil {
					walk(x.Body, x.Name.Name)
				}
				return false
			case *ast.TypeSpec:
				walk(x.Type, x.Name.Name)
				return false
			case *ast.StructType:
				st := p.info.Types[x].Type.(*types.Struct)
				for i := 0; i < st.NumFields(); i++ {
					if strings.Contains(st.Tag(i), `json:"`) {
						return false
					}
				}
				i := 0
				for _, fl := range x.Fields.List {
					n := max(len(fl.Names), 1)
					for j := 0; j < n; j++ {
						f := st.Field(i + j)
						each(f, pkg+"."+name+"."+f.Name())
						walk(fl.Type, name+"."+f.Name())
					}
					i += n
				}
				return false
			}
			return true
		})
	}
	for _, f := range p.files {
		walk(f, "")
	}
}

// walkReads hands read every struct field p's files read (see
// TestEveryFieldHasAReader).
func walkReads(p *gatePkg, read func(*types.Var)) {
	info := p.info
	written := map[*ast.Ident]bool{}
	// target marks the fields an assignment to e writes: the field it
	// selects, and the fields and array elements it is held in by value.
	var target func(e ast.Expr)
	target = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.ParenExpr:
			target(x.X)
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				written[x.Sel] = true
				if !sel.Indirect() {
					target(x.X)
				}
			}
		case *ast.IndexExpr:
			if _, ok := info.Types[x.X].Type.Underlying().(*types.Array); ok {
				target(x.X)
			}
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(x.X)
			case *ast.CompositeLit:
				if _, ok := info.Types[x].Type.Underlying().(*types.Struct); !ok {
					break
				}
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						written[kv.Key.(*ast.Ident)] = true
					}
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		if f, ok := obj.(*types.Var); ok && f.IsField() && !written[id] {
			read(f)
		}
	}
	// Selecting through an embedded field reads it.
	for _, sel := range info.Selections {
		typ := sel.Recv()
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			if ptr, ok := typ.Underlying().(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			f := typ.Underlying().(*types.Struct).Field(i)
			read(f)
			typ = f.Type()
		}
	}
}
