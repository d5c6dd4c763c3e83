// Package sitereg enforces the fault-injection site discipline: every
// name handed to faultinject.Fire or faultinject.Arm must be a named
// package-level string constant (so sites are greppable and tests can
// import the constant instead of retyping the string), every site value
// may be declared by only one constant repo-wide, and every value must
// appear in the site registry table DESIGN.md maintains.
//
// The DESIGN.md table is compiled in via registry_gen.go, which
// `joinlint -gensites` regenerates; TestRegistryGenerated keeps the two
// from drifting. Adding a site is therefore a three-line change: the
// constant, the DESIGN.md row, and a `joinlint -gensites` run.
package sitereg

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"sort"
	"strings"

	"joinpebble/internal/analysis"
)

// Analyzer is the sitereg pass.
var Analyzer = &analysis.Analyzer{
	Name:   "sitereg",
	Doc:    "faultinject sites must be named package-level constants, unique, and registered in DESIGN.md",
	Run:    run,
	Finish: finish,
}

const faultinjectPath = "joinpebble/internal/faultinject"

// siteUse is one Fire/Arm call on a registered constant, exported as a
// fact for the global uniqueness check.
type siteUse struct {
	Value string // the site string
	Const string // defining constant, as pkgpath.Name
	Pos   token.Pos
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo
	var uses []siteUse
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(info, call)
			// The site name is argument 1 for Fire (the context comes
			// first there) and argument 0 for Arm.
			verb, nameArg := "", 0
			switch {
			case analysis.FuncIs(fn, faultinjectPath, "", "Fire"):
				verb, nameArg = "Fire", 1
			case analysis.FuncIs(fn, faultinjectPath, "", "Arm"):
				verb = "Arm"
			}
			if verb == "" || len(call.Args) <= nameArg {
				return true
			}
			arg := ast.Unparen(call.Args[nameArg])
			obj, _ := analysis.UsedObject(info, arg).(*types.Const)
			if obj == nil || !analysis.IsPackageLevel(obj) {
				pass.Reportf(arg.Pos(), "faultinject.%s site must be a named package-level constant, not an inline value", verb)
				return true
			}
			value, ok := analysis.ConstString(info, arg)
			if !ok {
				pass.Reportf(arg.Pos(), "faultinject.%s site constant %s must be a string", verb, obj.Name())
				return true
			}
			if !Registry[value] {
				pass.Reportf(arg.Pos(), "faultinject site %q is not in DESIGN.md's site registry; add a row to the table and run `joinlint -gensites`", value)
			}
			uses = append(uses, siteUse{
				Value: value,
				Const: obj.Pkg().Path() + "." + obj.Name(),
				Pos:   arg.Pos(),
			})
			return true
		})
	}
	if len(uses) > 0 {
		pass.ExportFact(uses)
	}
	return nil
}

// finish reports site values claimed by more than one constant.
func finish(fp *analysis.FinishPass) error {
	type claim struct {
		constName string
		pos       token.Pos
	}
	byValue := map[string][]claim{}
	for _, f := range fp.Facts {
		for _, u := range f.Fact.([]siteUse) {
			byValue[u.Value] = append(byValue[u.Value], claim{u.Const, u.Pos})
		}
	}
	values := make([]string, 0, len(byValue))
	for v := range byValue {
		values = append(values, v)
	}
	sort.Strings(values)
	for _, v := range values {
		claims := byValue[v]
		consts := map[string]bool{}
		for _, c := range claims {
			consts[c.constName] = true
		}
		if len(consts) < 2 {
			continue
		}
		for _, c := range claims {
			others := make([]string, 0, len(consts)-1)
			for name := range consts {
				if name != c.constName {
					others = append(others, name)
				}
			}
			sort.Strings(others)
			fp.Reportf(c.pos, "fault site %q is also declared by %s; site values must be unique", v, strings.Join(others, ", "))
		}
	}
	return nil
}

var (
	registryMarker = "**Fault-injection site registry**"
	siteRowRE      = regexp.MustCompile("^\\|\\s*`([^`]+)`\\s*\\|")
)

// ParseDesign extracts the site names from DESIGN.md's fault-injection
// registry table: the backticked first column of every row between the
// registry marker and the next section heading.
func ParseDesign(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var (
		sites  []string
		seen   = map[string]bool{}
		inside bool
	)
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.Contains(line, registryMarker):
			inside = true
		case inside && strings.HasPrefix(line, "## "):
			inside = false
		case inside:
			if m := siteRowRE.FindStringSubmatch(line); m != nil {
				if !seen[m[1]] {
					seen[m[1]] = true
					sites = append(sites, m[1])
				}
			}
		}
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("sitereg: no site rows found under %q in %s", registryMarker, path)
	}
	sort.Strings(sites)
	return sites, nil
}

// GenSource renders registry_gen.go for the given site list.
func GenSource(sites []string) []byte {
	var buf bytes.Buffer
	buf.WriteString("// Code generated by joinlint -gensites from DESIGN.md; DO NOT EDIT.\n\n")
	buf.WriteString("package sitereg\n\n")
	buf.WriteString("// Registry holds every fault-injection site DESIGN.md documents.\n")
	buf.WriteString("var Registry = map[string]bool{\n")
	sorted := append([]string(nil), sites...)
	sort.Strings(sorted)
	for _, s := range sorted {
		fmt.Fprintf(&buf, "\t%q: true,\n", s)
	}
	buf.WriteString("}\n")
	src, err := format.Source(buf.Bytes())
	if err != nil {
		// The template above always parses; fall back to the raw bytes.
		return buf.Bytes()
	}
	return src
}
