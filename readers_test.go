package rpivideo_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"testing"
)

// The two reasons an exported name may stay without a production reader:
// bench/ reads it (checked against bench/'s own uses), or tests need it as a
// hook, "a hook <pkg>'s tests need" naming their packages.
const benchReason = "read by bench/; goes with ROADMAP item 4"

var hookReason = regexp.MustCompile(`^a hook [a-z]+'s?((, [a-z]+'s?)* and [a-z]+'s?)? tests need$`)

// unreadNames are the exported names under internal/ that no non-test file
// of the module reads, each with why it stays.
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
	"cell.(*Machine).Events":           "a hook core's and link's tests need",
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
// type, variable, constant and interface method declared under internal/
// that no non-test file of the module uses, bench/ aside. A use inside the
// name's own declaration (a recursive call, a self-referencing type) does
// not count. Uses resolve through go/types: a generic method's use is one of
// its origin, and a method is read when its type implements an interface
// method of the same name that production code calls. Methods implementing
// fmt.Stringer, error, json.Marshaler or json.Unmarshaler are exempt: the
// standard library calls them.
//
// The list must equal unreadNames: a new unread name fails the build, and
// so does an entry that has gained a reader. An entry that says it is read
// by bench/ must be.
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
	benchRead := map[string]bool{}
	checked := 0
	check := func(obj types.Object) {
		if !obj.Exported() {
			return
		}
		if checked++; read(obj) {
			return
		}
		key := gateKey(obj)
		unread = append(unread, key)
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

	t.Logf("%d exported names checked, %d without a production reader", checked, len(unread))
	sort.Strings(unread)
	for _, key := range unread {
		reason, ok := unreadNames[key]
		switch {
		case !ok:
			t.Errorf("%s: exported name that no non-test code reads", key)
		case reason != benchReason && !hookReason.MatchString(reason):
			t.Errorf("%s: reason %q is neither %q nor \"a hook <pkg>'s tests need\"", key, reason, benchReason)
		case reason == benchReason && !benchRead[key]:
			t.Errorf("%s is listed as read by bench/, but bench/ does not read it", key)
		}
	}
	for key := range unreadNames {
		if i := sort.SearchStrings(unread, key); i == len(unread) || unread[i] != key {
			t.Errorf("%s is listed as unread, but it is read now or gone: drop it from unreadNames", key)
		}
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
