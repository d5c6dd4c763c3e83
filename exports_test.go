package joinpebble

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAPI lists the exported functions and methods under internal/
// that are deliberate test APIs: no production code calls them, and
// tests do.
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
	// Observability seams: a scope's recorder, and the clock that the
	// forbidden analyzer routes every clock read through.
	"obs.Scope.SetRecorder": true,
	"obs.SetClock":          true,
	// The scoped histogram, kept for per-family π/m histograms.
	"obs.ScopedHistogram": true,
	// The parser of the relation format joingen -out relations writes:
	// the round-trip and fuzz tests pin the format through it.
	"relation.Read": true,
	// Service state that tests poll.
	"serve.Server.URL":        true,
	"serve.Server.Draining":   true,
	"serve.Admission.Waiting": true,
}

// stdInterfaceMethods are called through standard-library interfaces
// (error, fmt.Stringer, errors.Unwrap, json.Marshaler), so no
// identifier in this module names them.
var stdInterfaceMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "MarshalJSON": true,
}

// TestNoTestOnlyExports fails on an exported function or method under
// internal/ that no non-test file of the module refers to: such an
// export is either dead or a test helper, and a test helper belongs in
// a _test.go file. Functions match by package and name; methods match
// by name alone, so a call through an interface counts.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key   string // "pkg.Func" or "pkg.Type.Method"
		dir   string
		name  string
		isFn  bool
		where string
	}
	var decls []decl
	funcRefs := map[string]bool{} // "dir\x00Name": a reference to a top-level func
	methodRefs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (n == "testdata" || strings.HasPrefix(n, ".")) {
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
		dir := filepath.ToSlash(filepath.Dir(path))
		// Import name → directory, for the module's own packages.
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			rel, ok := strings.CutPrefix(p, "joinpebble/")
			if !ok {
				continue
			}
			name := filepath.Base(rel)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = rel
		}
		declared := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "internal/testutil") {
				continue
			}
			key := filepath.Base(dir) + "." + fd.Name.Name
			if fd.Recv != nil {
				key = filepath.Base(dir) + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key: key, dir: dir, name: fd.Name.Name, isFn: fd.Recv == nil, where: fset.Position(fd.Pos()).String()})
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				methodRefs[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if rel, ok := imports[x.Name]; ok {
						funcRefs[rel+"\x00"+n.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !declared[n] {
					funcRefs[dir+"\x00"+n.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						methodRefs[name.Name] = true
					}
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported functions under internal/")
	}
	var unused []string
	for _, d := range decls {
		if testOnlyAPI[d.key] {
			continue
		}
		if d.isFn && funcRefs[d.dir+"\x00"+d.name] {
			continue
		}
		if !d.isFn && (methodRefs[d.name] || stdInterfaceMethods[d.name]) {
			continue
		}
		unused = append(unused, d.where+": "+d.key)
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests: delete it, or move it into the tests that use it", u)
	}
}

// recvName is the receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
