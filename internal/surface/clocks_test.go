package surface

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The clock census (ROADMAP item 19): no serving decision may read the
// host's stopwatch or an unseeded random source, because then a slow build
// (coverage, race, a loaded CI runner) decides differently from a fast one.
// TestClocks lists every place non-test code outside bench/ reads one:
//
//   - a use of time.Now, Since, Until, After, AfterFunc, Tick, NewTimer,
//     NewTicker or Sleep, called or passed on as a value;
//   - a use of a function of math/rand, math/rand/v2 or crypto/rand;
//   - a read of a report-only field (reportFields): writing one is how the
//     stopwatch reaches a report, reading one is where it could leak out.
//
// testdata/clocks.golden holds one "pkg.Recv.Func KIND<TAB>verdict" line
// per function and kind (function names as in unreached.golden; no file
// names or line numbers, so edits do not churn it), sorted. A verdict is
// one of
//
//	report               the value reaches only output: sinks, metrics,
//	report: reason       -v lines, experiment tables
//	supervision: reason  timeouts, heartbeats, retry backoff, rate limits,
//	                     the run clock: when something happens, never what
//	identity: reason     a value that names, never decides
//
// There is no decision verdict. A new read fails the test until it has a
// line, and a line whose read is gone fails as stale, so the golden diff
// shows a reviewer every clock a change adds or removes.
const clocksGolden = "testdata/clocks.golden"

var clockVerdictRE = regexp.MustCompile(`^(report(: \S.*)?|supervision: \S.*|identity: \S.*)$`)

// clockFuncs are the functions of package time that read or wait on the
// wall clock.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "Sleep": true,
}

// randPkgs are the random sources.
var randPkgs = map[string]bool{"math/rand": true, "math/rand/v2": true, "crypto/rand": true}

// reportFields hold stopwatch readings (DESIGN §3): the codec times each
// tile and sums the times per frame, and core carries them into its frame
// and GOP reports. A listed field that no longer exists fails the test, so
// the list cannot rot.
var reportFields = []string{
	"codec.TileStats.EncodeTime",
	"codec.TileStats.SearchTime",
	"codec.FrameStats.EncodeTime",
	"core.FrameReport.EncodeTime",
	"core.GOPReport.CPUTime",
}

// clockSites maps "pkg.Recv.Func KIND" to the first position it occurs at.
func clockSites(t *testing.T) map[string]token.Position {
	m := load(t)
	fields := map[types.Object]string{}
	for _, name := range reportFields {
		parts := strings.Split(name, ".")
		obj := m.internalPkg(t, parts[0]).types.Scope().Lookup(parts[1])
		var field types.Object
		if obj != nil {
			field, _, _ = types.LookupFieldOrMethod(obj.Type(), false, obj.Pkg(), parts[2])
		}
		if v, ok := field.(*types.Var); !ok || !v.IsField() {
			t.Errorf("reportFields lists %s, which is no struct field", name)
			continue
		}
		fields[field] = name
	}

	out := map[string]token.Position{}
	for path, p := range m.pkgs {
		if strings.HasPrefix(path, "repro/bench") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				fn := ""
				if ok {
					fn = objKey(p.info.Defs[fd.Name].(*types.Func))
				}
				// Assigned fields and composite-literal keys are writes.
				writes := map[*ast.Ident]bool{}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								writes[sel.Sel] = true
							}
						}
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							writes[id] = true
						}
					case *ast.Ident:
						kind := clockKind(p.info.Uses[n], fields)
						if kind == "" || writes[n] {
							return true
						}
						pos := m.fset.Position(n.Pos())
						if fn == "" {
							t.Errorf("%s: %s read outside a function; move it into one the census can name", pos, kind)
							return true
						}
						if _, seen := out[fn+" "+kind]; !seen {
							out[fn+" "+kind] = pos
						}
					}
					return true
				})
			}
		}
	}
	return out
}

// clockKind names what a used object reads ("time.Now", "math/rand.Float64",
// "core.GOPReport.CPUTime"), or "" when it reads no clock or random source.
func clockKind(obj types.Object, fields map[types.Object]string) string {
	if name, ok := fields[obj]; ok {
		return name
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	switch pkg := fn.Pkg().Path(); {
	case pkg == "time" && clockFuncs[fn.Name()] && recvType(fn) == nil:
		return "time." + fn.Name()
	case randPkgs[pkg]:
		if recv := recvType(fn); recv != nil {
			return pkg + "." + recv.Name() + "." + fn.Name()
		}
		return pkg + "." + fn.Name()
	}
	return ""
}

// TestClocks holds the census to its golden: the golden is sorted and
// well-formed, every read has a verdict, and every line names a read that
// still exists (a line whose function is gone fails as stale).
func TestClocks(t *testing.T) {
	golden := readVerdicts(t, clocksGolden, clockVerdictRE, "report, report: reason, supervision: reason, identity: reason")
	sites := clockSites(t)
	names := make([]string, 0, len(sites))
	for name := range sites {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := golden[name]; !ok {
			t.Errorf("%s: %s has no verdict: add a %q line with a report, supervision or identity verdict to %s — a serving decision must not read it",
				sites[name], name, name+"\t…", clocksGolden)
		}
	}
	for name := range golden {
		if _, ok := sites[name]; !ok {
			t.Errorf("%s lists %s, which no longer reads it: drop the line", clocksGolden, name)
		}
	}
	t.Logf("%d clock and randomness reads, %d golden lines", len(sites), len(golden))
}
