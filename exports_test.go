package joinpebble

import (
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"joinpebble/internal/analysis/load"
)

// testOnlyAPI lists the exported functions and methods under internal/
// that no production code calls on purpose: deliberate test APIs, and
// library API of the value types the root package re-exports.
var testOnlyAPI = map[string]bool{
	// The analyzers' test harness, which every analyzer test imports.
	"analysistest.Run": true,
	// Fault injection: tests arm and inspect sites that production
	// code only fires.
	"faultinject.Arm":    true,
	"faultinject.Armed":  true,
	"faultinject.Disarm": true,
	"faultinject.Fired":  true,
	"faultinject.Hits":   true,
	// The named-family corpus that the graph, engine and solver
	// differential tests iterate.
	"family.All":   true,
	"family.Build": true,
	// The random bipartite generator the graph and solver tests draw
	// their instances from.
	"graph.RandomBipartite": true,
	// Queries on the join graph, set and rectangle values that the root
	// package re-exports as joinpebble.Bipartite, Set and Rect.
	"graph.Bipartite.HasEdge": true,
	"sets.Set.Contains":       true,
	"sets.Set.Equal":          true,
	"sets.Set.Union":          true,
	"spatial.Rect.Contains":   true,
	// Observability seams: a scope's recorder, and the clock that the
	// forbidden analyzer routes every clock read through.
	"obs.Scope.SetRecorder": true,
	"obs.SetClock":          true,
	// The scoped histogram, kept for per-family π/m histograms.
	"obs.ScopedHistogram":      true,
	"obs.HistogramVar.Observe": true,
	// A tracer's span count, which the obs, engine and benchmark replay
	// tests read.
	"obs.Tracer.Len": true,
	// A tour's jump count J (§2.2), which the tsp and reduction tests
	// check tours against.
	"tsp.Instance.Jumps": true,
	// Service state that tests poll.
	"serve.Server.URL":        true,
	"serve.Server.Draining":   true,
	"serve.Admission.Waiting": true,
}

// stdInterfaceMethods are called through standard-library interfaces
// (error, fmt.Stringer, errors.Unwrap, json.Marshaler), so no code in
// this module refers to them.
var stdInterfaceMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "MarshalJSON": true,
}

// TestNoTestOnlyExports fails on an exported function or method under
// internal/ that no non-test code of the module refers to: such an
// export is either dead or a test helper, and a test helper belongs in
// a _test.go file. References are resolved with go/types over the
// module's non-test packages, so a method counts as used when non-test
// code refers to it, or to an interface method that its type
// implements, and never merely because something else shares its name.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := load.Load(".", fset, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}      // FullName of every function or concrete method referred to
	var ifaceMethods []*types.Func // interface methods referred to
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if s := fn.Scope(); s != nil && s.Contains(id.Pos()) {
				continue // a recursive call is no use
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceMethods = append(ifaceMethods, fn)
				continue
			}
			used[fn.FullName()] = true
		}
	}
	viaInterface := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, im := range ifaceMethods {
			if im.Name() == m.Name() && implements(recv, im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)) {
				return true
			}
		}
		return false
	}
	var unused []string
	declared := map[string]bool{}
	check := func(fn *types.Func, key string) {
		declared[key] = true
		switch {
		case !fn.Exported(), used[fn.FullName()], testOnlyAPI[key]:
		case fn.Type().(*types.Signature).Recv() != nil && (stdInterfaceMethods[fn.Name()] || viaInterface(fn)):
		default:
			unused = append(unused, fset.Position(fn.Pos()).String()+": "+key)
		}
	}
	for _, p := range pkgs {
		rel, _ := strings.CutPrefix(p.ImportPath, "joinpebble/")
		if !strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "internal/testutil") {
			continue
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				check(obj, p.Pkg.Name()+"."+name)
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok && !obj.IsAlias() {
					for i := range named.NumMethods() {
						m := named.Method(i)
						check(m, p.Pkg.Name()+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	if len(used) == 0 {
		t.Fatal("found no references to functions")
	}
	for key := range testOnlyAPI {
		if !declared[key] {
			t.Errorf("testOnlyAPI lists %s, which is not declared under internal/", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests: delete it, or move it into the tests that use it", u)
	}
}

// implements reports whether *t's method set has every method of iface
// with the same parameter and result types.
func implements(t types.Type, iface *types.Interface) bool {
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := range iface.NumMethods() {
		m := iface.Method(i)
		sel := ms.Lookup(m.Pkg(), m.Name())
		if sel == nil || !sameSignature(sel.Obj().Type().(*types.Signature), m.Type().(*types.Signature)) {
			return false
		}
	}
	return true
}

// sameSignature compares two signatures' parameter and result types in
// their printed form: a package typechecked from source and the export
// data other packages import it from are distinct types.Packages, so
// types.Identical would tell their types apart.
func sameSignature(a, b *types.Signature) bool {
	typesOf := func(t *types.Tuple) string {
		var sb strings.Builder
		for i := range t.Len() {
			sb.WriteString(types.TypeString(t.At(i).Type(), nil) + ",")
		}
		return sb.String()
	}
	return a.Variadic() == b.Variadic() &&
		typesOf(a.Params()) == typesOf(b.Params()) && typesOf(a.Results()) == typesOf(b.Results())
}
