package surface

import (
	"fmt"
	"go/types"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The export census (ROADMAP item 25): the public surface of a package is
// what another package calls. TestExports resolves every exported top-level
// name of an internal/ package, and every exported method of its exported
// named types, to its non-test uses in other packages. Struct fields are out
// of scope: knobs.golden and the wire goldens pin them.
//
// testdata/exports.golden holds one "pkg.Name<TAB>verdict" or
// "pkg.Type.Method<TAB>verdict" line per name that no package outside
// bench/ names, sorted, with no file names or line numbers. A verdict is
// one of
//
//	interface: reason    a method that satisfies an interface declared in
//	                     another package, which callers go through
//	return-type: reason  a type callers receive from an exported function,
//	                     method or field and never have to spell
//	wire: reason         a JSON-encoded type of the dist or core wire
//	test-seam            only tests name it; orphanAllow says why it stays
//	bench: reason        only bench/ names it, and bench/ changes only in a
//	                     benchmark change
//	open                 not yet judged; only packages outside cutPkgs
//
// Verdicts are checked, not trusted: a bench line needs a use in bench/, a
// test-seam line an orphanAllow key, an interface line a method some other
// package's interface holds, a return-type line a type an exported
// signature or field mentions, and a wire line a struct with JSON tags. A
// new exported name without a line fails, and a line whose name gained an
// outside caller or is gone fails as stale; -update rewrites the golden,
// keeping every verdict and marking new names open.
const exportsGolden = "testdata/exports.golden"

var exportVerdictRE = regexp.MustCompile(`^(interface: \S.*|return-type: \S.*|wire: \S.*|test-seam|bench: \S.*|open)$`)

// cutPkgs are the packages cut to their callers: every exported name there
// is named by another package or has a checked verdict, and none is open.
var cutPkgs = map[string]bool{"metrics": true, "quality": true, "sched": true, "tiling": true, "video": true}

const exportsHeader = `# The export census: every exported name of an internal/ package (top-level
# objects and methods of exported named types) that no non-test code of
# another package outside bench/ names, with its verdict.
# internal/surface/exports_test.go (TestExports) explains the verdicts.
`

// exported is one census entry: the object and where other packages name it.
type exported struct {
	obj     types.Object
	outside bool // named by a non-test file of another package outside bench/
	bench   bool // named by a non-test file of bench/
}

// exportCensus maps the census key of every exported name under internal/
// to its entry.
func exportCensus(t *testing.T) map[string]*exported {
	m := load(t)
	out := map[string]*exported{}
	byObj := map[types.Object]*exported{}
	add := func(key string, obj types.Object) {
		e := &exported{obj: obj}
		out[key] = e
		byObj[obj] = e
	}
	for path, p := range m.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			add(p.types.Name()+"."+name, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if meth := named.Method(i); meth.Exported() {
						add(p.types.Name()+"."+name+"."+meth.Name(), meth)
					}
				}
			}
		}
	}
	for path, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			e := byObj[obj]
			if e == nil || obj.Pkg() == p.types {
				continue
			}
			if strings.HasPrefix(path, "repro/bench") {
				e.bench = true
			} else {
				e.outside = true
			}
		}
	}
	return out
}

// satisfiesForeign reports whether meth, a method of a named type, is a
// method of an interface declared outside the type's package that the type
// (or its pointer) implements.
func satisfiesForeign(meth *types.Func, ifaces []*types.Interface, paths []string) bool {
	recv := recvType(meth)
	if recv == nil {
		return false
	}
	ptr := types.NewPointer(recv.Type())
	for i, it := range ifaces {
		if paths[i] == meth.Pkg().Path() {
			continue
		}
		for j := 0; j < it.NumMethods(); j++ {
			if it.Method(j).Name() == meth.Name() && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}

// reachesCallers reports whether the named type tn appears in the result of
// an exported function or method, or in the type of an exported field of an
// exported struct, anywhere under internal/.
func reachesCallers(census map[string]*exported, tn *types.TypeName) bool {
	mentions := func(typ types.Type) bool {
		for {
			switch u := typ.(type) {
			case *types.Pointer:
				typ = u.Elem()
			case *types.Slice:
				typ = u.Elem()
			case *types.Array:
				typ = u.Elem()
			case *types.Map:
				typ = u.Elem()
			case *types.Chan:
				typ = u.Elem()
			case *types.Named:
				return u.Obj() == tn
			default:
				return false
			}
		}
	}
	for _, e := range census {
		switch o := e.obj.(type) {
		case *types.Func:
			res := o.Type().(*types.Signature).Results()
			for i := 0; i < res.Len(); i++ {
				if mentions(res.At(i).Type()) {
					return true
				}
			}
		case *types.TypeName:
			st, ok := o.Type().Underlying().(*types.Struct)
			if !ok || o == tn {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && mentions(f.Type()) {
					return true
				}
			}
		}
	}
	return false
}

// hasJSONTags reports whether tn is a struct with at least one json tag.
func hasJSONTags(tn *types.TypeName) bool {
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if strings.Contains(st.Tag(i), `json:"`) {
			return true
		}
	}
	return false
}

// checkExportVerdict returns why verdict does not hold for e, or "".
func checkExportVerdict(census map[string]*exported, e *exported, key, verdict string, ifaces []*types.Interface, paths []string) string {
	kind, _, _ := strings.Cut(verdict, ":")
	tn, isType := e.obj.(*types.TypeName)
	switch kind {
	case "bench":
		if !e.bench {
			return "bench/ does not name it"
		}
	case "test-seam":
		if _, ok := orphanAllow[key]; !ok {
			return "orphanAllow has no such key"
		}
	case "interface":
		meth, ok := e.obj.(*types.Func)
		if !ok || !satisfiesForeign(meth, ifaces, paths) {
			return "it satisfies no interface declared in another package"
		}
	case "return-type":
		if !isType || !reachesCallers(census, tn) {
			return "no exported function, method or field hands it to callers"
		}
	case "wire":
		if !isType || !hasJSONTags(tn) {
			return "it is no struct with JSON tags"
		}
	case "open":
		if pkg, _, _ := strings.Cut(key, "."); cutPkgs[pkg] {
			return "package " + pkg + " is cut: unexport the name or give it a checked verdict"
		}
	}
	return ""
}

// TestExports holds the census to its golden: every exported name no
// package outside bench/ names has a line, every line names such a name,
// and every verdict holds.
func TestExports(t *testing.T) {
	census := exportCensus(t)
	ifaces, paths := moduleInterfaces(t)
	var names []string
	perPkg := map[string]int{}
	for key, e := range census {
		if !e.outside {
			names = append(names, key)
			pkg, _, _ := strings.Cut(key, ".")
			perPkg[pkg]++
		}
	}
	sort.Strings(names)

	golden := readVerdicts(t, exportsGolden, exportVerdictRE, "interface: reason, return-type: reason, wire: reason, test-seam, bench: reason, open")
	if *update {
		kept := map[string]string{}
		var b strings.Builder
		b.WriteString(exportsHeader)
		for _, name := range names {
			verdict, ok := golden[name]
			if !ok {
				verdict = "open"
			}
			kept[name] = verdict
			fmt.Fprintf(&b, "%s\t%s\n", name, verdict)
		}
		if err := os.WriteFile(exportsGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		golden = kept
	}

	for _, name := range names {
		verdict, ok := golden[name]
		if !ok {
			t.Errorf("%s: no package outside bench/ names it: unexport it, or add a %q line with a verdict to %s",
				name, name+"\t…", exportsGolden)
			continue
		}
		if why := checkExportVerdict(census, census[name], name, verdict, ifaces, paths); why != "" {
			t.Errorf("%s: verdict %q does not hold: %s", name, verdict, why)
		}
	}
	for name := range golden {
		if e, ok := census[name]; !ok || e.outside {
			t.Errorf("%s lists %s, which another package now names or which no longer exists: drop the line", exportsGolden, name)
		}
	}
	var counts []string
	for pkg, n := range perPkg {
		counts = append(counts, fmt.Sprintf("%s %d", pkg, n))
	}
	sort.Strings(counts)
	t.Logf("%d exported names under internal/, %d named by no other package outside bench/ (%s)",
		len(census), len(names), strings.Join(counts, ", "))
}
