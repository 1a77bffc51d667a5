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
//	interface: reason    a method that satisfies an interface callers go
//	                     through: one declared in another package, or one
//	                     of its own package that another package names
//	return-type: reason  a type callers receive from an exported function,
//	                     method or field and never have to spell, or a
//	                     constant of such a type that callers compare against
//	wire: reason         a JSON-encoded type: a dist or core wire message,
//	                     or the tenants file
//	test-seam            only tests name it; orphanAllow says why it stays
//	bench: reason        only bench/ names it, and bench/ changes only in a
//	                     benchmark change
//
// Verdicts are checked, not trusted: a bench line needs a use in bench/, a
// test-seam line an orphanAllow key, an interface line a method of an
// interface another package declares or names, a return-type line a type
// (or a constant of a type) an exported signature or field mentions, and a
// wire line a struct with JSON tags. A new exported name without a line
// fails until it gets a verdict or is unexported, and a line whose name
// gained an outside caller or is gone fails as stale; -update drops the
// stale lines and keeps every verdict.
const exportsGolden = "testdata/exports.golden"

var exportVerdictRE = regexp.MustCompile(`^(interface: \S.*|return-type: \S.*|wire: \S.*|test-seam|bench: \S.*)$`)

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

// satisfiesInterface reports whether meth, a method of a named type, is a
// method of an interface the type (or its pointer) implements and callers
// go through: one declared outside the type's package, or one of its own
// package that non-test code of another package outside bench/ names.
func satisfiesInterface(census map[string]*exported, meth *types.Func, ifaces []*types.Interface, paths []string) bool {
	recv := recvType(meth)
	if recv == nil {
		return false
	}
	ptr := types.NewPointer(recv.Type())
	holds := func(it *types.Interface) bool {
		for j := 0; j < it.NumMethods(); j++ {
			if it.Method(j).Name() == meth.Name() && types.Implements(ptr, it) {
				return true
			}
		}
		return false
	}
	for i, it := range ifaces {
		if paths[i] != meth.Pkg().Path() && holds(it) {
			return true
		}
	}
	for _, e := range census {
		if tn, ok := e.obj.(*types.TypeName); ok && e.outside && tn.Pkg() == meth.Pkg() {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && holds(it) {
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
		if !ok || !satisfiesInterface(census, meth, ifaces, paths) {
			return "it satisfies no interface declared or named by another package"
		}
	case "return-type":
		// A constant holds when its named type does: an enum value
		// callers compare against.
		if c, ok := e.obj.(*types.Const); ok {
			if named, ok := c.Type().(*types.Named); ok {
				tn, isType = named.Obj(), true
			}
		}
		if !isType || !reachesCallers(census, tn) {
			return "no exported function, method or field hands it to callers"
		}
	case "wire":
		if !isType || !hasJSONTags(tn) {
			return "it is no struct with JSON tags"
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

	golden := readVerdicts(t, exportsGolden, exportVerdictRE, "interface: reason, return-type: reason, wire: reason, test-seam, bench: reason")
	if *update {
		kept := map[string]string{}
		var b strings.Builder
		b.WriteString(exportsHeader)
		for _, name := range names {
			if verdict, ok := golden[name]; ok {
				kept[name] = verdict
				fmt.Fprintf(&b, "%s\t%s\n", name, verdict)
			}
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

// TestExportVerdicts holds checkExportVerdict itself to its rules, on real
// names of the module: each verdict kind holds where its rule is met and
// is refused where it is not.
func TestExportVerdicts(t *testing.T) {
	census := exportCensus(t)
	ifaces, paths := moduleInterfaces(t)
	for _, tc := range []struct {
		key, verdict string
		// hide clears the outside flag of these names first: the census as
		// if no other package named them.
		hide  []string
		holds bool
	}{
		{key: "metrics.Sink.OnGOP", verdict: "interface: serve.Sink", holds: true},
		{key: "serve.JSONLSink.OnGOP", verdict: "interface: Sink, named by metrics", holds: true},
		{key: "serve.JSONLSink.OnGOP", verdict: "interface: Sink, named by nobody", hide: []string{"serve.Sink"}},
		{key: "core.Server.ServeAll", verdict: "interface: none"},
		{key: "sched.Assignment", verdict: "return-type: Result.Assignments", holds: true},
		{key: "tenancy.Config", verdict: "return-type: nothing returns it"},
		{key: "core.StateFailed", verdict: "return-type: a SessionState value", holds: true},
		{key: "serve.JSONLDrop", verdict: "return-type: its type is unexported and handed to nobody"},
		{key: "dist.Heartbeat", verdict: "wire: the heartbeat body", holds: true},
		{key: "sched.Assignment", verdict: "wire: no JSON tags"},
		{key: "video.SAD", verdict: "test-seam", holds: true},
		{key: "core.StateFailed", verdict: "test-seam"},
		{key: "video.PSNR", verdict: "bench: the decode checks", holds: true},
		{key: "core.StateFailed", verdict: "bench: bench/ does not name it"},
	} {
		view := census
		if len(tc.hide) > 0 {
			view = make(map[string]*exported, len(census))
			for k, e := range census {
				view[k] = e
			}
			for _, k := range tc.hide {
				hidden := *census[k]
				hidden.outside = false
				view[k] = &hidden
			}
		}
		e := view[tc.key]
		if e == nil {
			t.Fatalf("%s is not an exported name of the module", tc.key)
		}
		why := checkExportVerdict(view, e, tc.key, tc.verdict, ifaces, paths)
		if (why == "") != tc.holds {
			t.Errorf("%s %q (hiding %v): holds %v (%q), want %v", tc.key, tc.verdict, tc.hide, why == "", why, tc.holds)
		}
	}
}
