// Package surface has no code of its own: its tests pin the module's
// settable surface and keep dead exported code from coming back
// (ROADMAP item 7; DESIGN.md §12 describes the four census goldens).
// Standard library only — go/parser and go/types over the checkout, the
// "source" importer for the standard library.
//
//	TestKnobs     one golden line per exported field of the non-wire config
//	              structs, per serve.With* constructor and per transcode flag;
//	              a new knob is a diff in testdata/knobs.golden a reviewer reads
//	              (go test ./internal/surface -update rewrites it).
//	TestNoOrphans an exported func, method or var under internal/ that no
//	              non-test file of bench/, cmd/ or internal/ names fails, unless
//	              orphanAllow gives the reason it is kept — and an entry whose
//	              name gained a production caller (or is gone) fails as stale.
//	TestReach     the dynamic twin of TestNoOrphans (reach_test.go): every
//	              function no production command line runs has a verdict in
//	              testdata/unreached.golden, checked against a coverage run;
//	              TestUnreachedGolden checks the golden itself in tier-1.
//	TestExports   every exported name under internal/ that no other package
//	              outside bench/ names has a checked verdict in
//	              testdata/exports.golden (exports_test.go): the public
//	              surface is what another package calls. TestExportVerdicts
//	              checks the verdict rules themselves.
//	TestClocks    every read of the wall clock, a random source or a
//	              report-only stopwatch field in production code has a
//	              report, supervision or identity verdict in
//	              testdata/clocks.golden (clocks_test.go); none is a decision.
//	TestReadmeExamples every Go block of README.md is the body of an Example
//	              in internal/serve (readme_test.go), so go test compiles and
//	              runs the README's code.
package surface

import (
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/knobs.golden, and drop stale lines from testdata/exports.golden")

// knobStructs is the fixed list of configuration structs whose exported
// fields are knobs: everything a caller fills in to build a server, a
// fleet, a node or a telemetry sink. Wire-format structs (core.SessionWire
// and what it reaches, the dist messages, tenancy's JSON) are pinned by
// their own byte goldens and are not listed. A listed type that no longer
// exists fails the test, so the list cannot rot.
var knobStructs = []string{
	"core.ServerConfig",
	"core.AdmissionConfig",
	"core.CalibrationConfig",
	"core.SubmitOptions",
	"serve.SubmitRequest",
	"serve.AutoscaleConfig",
	"serve.ScheduledResize",
	"serve.RebalanceConfig",
	"serve.PlacementConfig",
	"dist.AgentConfig",
	"dist.MasterConfig",
	"metrics.SinkConfig",
	"metrics.CostModel",
	"motion.TZSearch",
	"motion.OneAtATime",
	"motion.Hexagon",
	"experiments.AblationOptions",
	"experiments.LUTOptions",
}

// orphanAllow lists the exported names kept although only tests name them,
// each with the reason. Every one is an oracle or fixture the tests of more
// than one package share; a name only one package's tests need lives in that
// package's _test.go instead. Keys are "pkg.Func" or "pkg.Type.Method", and
// TestUnreachedGolden holds them equal to the golden's test-seam lines.
var orphanAllow = map[string]string{
	"video.Frame.WriteYUV":  "writes the raw files the YUVFileSource and ReadYUV tests read back",
	"tiling.MustUniform":    "fixture constructor for grids known valid, in the codec, analysis and tiling tests",
	"core.Server.ServeAll":  "bounded round driver of the core, serve and dist tests: Run needs Close, these tests stop mid-stream",
	"codec.PoisonPools":     "fills recycled buffers with garbage so TestPooledEncodeBitIdentical proves no stale byte reaches a bitstream",
	"serve.RingSink.Report": "the event-stream oracle: Fleet.Report is DeepEqual-checked against it, and the metrics ledger reconciles with it",
	"video.SAD":             "bit-exactness oracle of the codec, medgen and core tests (a non-zero sum names a differing sample)",
	"video.Plane.Set":       "At's twin: the analysis, motion and video tests build their fixtures sample by sample, production writes whole rows",
	"video.Plane.Clone":     "gives the metric and motion-score tests an identical twin to perturb; its one production caller, Frame.Clone, was dead",
}

// pkg is one type-checked package of the module (non-test files only).
type pkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// module loads and type-checks packages of the checkout on demand. It is
// its own types.Importer for repro/... paths, so every package sees the
// same *types.Package (and the same objects) for a given import.
type module struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*pkg
}

var (
	loadOnce sync.Once
	loaded   *module
	loadErr  error
)

// load type-checks every package under bench/, cmd/ and internal/ once
// per test binary.
func load(t *testing.T) *module {
	t.Helper()
	loadOnce.Do(func() {
		// The source importer would otherwise run cgo (and need a C
		// compiler) for net and os/user.
		build.Default.CgoEnabled = false
		root, err := filepath.Abs("../..")
		if err != nil {
			loadErr = err
			return
		}
		fset := token.NewFileSet()
		m := &module{root: root, fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*pkg{}}
		for _, top := range []string{"bench", "cmd", "internal"} {
			err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
				if err != nil || !d.IsDir() {
					return err
				}
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				rel, _ := filepath.Rel(root, path)
				_, err = m.Import("repro/" + filepath.ToSlash(rel))
				return err
			})
			if err != nil {
				loadErr = err
				return
			}
		}
		loaded = m
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

// Import implements types.Importer. A directory without non-test Go files
// yields an empty package.
func (m *module) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, "repro/") {
		return m.std.Import(path)
	}
	if p, ok := m.pkgs[path]; ok {
		return p.types, nil
	}
	dir := filepath.Join(m.root, filepath.FromSlash(strings.TrimPrefix(path, "repro/")))
	parsed, err := parser.ParseDir(m.fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	p := &pkg{info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
	for _, ap := range parsed {
		for _, f := range ap.Files {
			p.files = append(p.files, f)
		}
	}
	sort.Slice(p.files, func(a, b int) bool { return p.files[a].Pos() < p.files[b].Pos() })
	m.pkgs[path] = p
	p.types, err = (&types.Config{Importer: m}).Check(path, m.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	return p.types, nil
}

// internalPkg returns the loaded package internal/<name>.
func (m *module) internalPkg(t *testing.T, name string) *pkg {
	t.Helper()
	p := m.pkgs["repro/internal/"+name]
	if p == nil || len(p.files) == 0 {
		t.Fatalf("no package internal/%s", name)
	}
	return p
}

func TestKnobs(t *testing.T) {
	m := load(t)
	var lines []string
	// Types render qualified by package name alone ("core.Session").
	short := (*types.Package).Name

	for _, name := range knobStructs {
		pkgName, typeName, _ := strings.Cut(name, ".")
		obj := m.internalPkg(t, pkgName).types.Scope().Lookup(typeName)
		if obj == nil {
			t.Errorf("knobStructs lists %s, which does not exist", name)
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			t.Errorf("knobStructs lists %s, which is not a struct", name)
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				lines = append(lines, fmt.Sprintf("field  %s.%s %s", name, f.Name(), types.TypeString(f.Type(), short)))
			}
		}
	}

	scope := m.internalPkg(t, "serve").types.Scope()
	for _, name := range scope.Names() {
		fn, ok := scope.Lookup(name).(*types.Func)
		if !ok || !strings.HasPrefix(name, "With") {
			continue
		}
		sig := types.TypeString(fn.Type(), short)
		lines = append(lines, fmt.Sprintf("option serve.%s%s", name, strings.TrimPrefix(sig, "func")))
	}

	// transcode's flags: every <Kind>Var(&dst, "name", ...) call on its
	// *flag.FlagSet.
	var flags []string
	cmd := m.pkgs["repro/cmd/transcode"]
	for _, f := range cmd.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !strings.HasSuffix(sel.Sel.Name, "Var") || len(call.Args) < 3 {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if v := cmd.info.Uses[x]; v == nil || v.Type().String() != "*flag.FlagSet" {
				return true
			}
			lit, ok := call.Args[1].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: flag name is not a string literal", m.fset.Position(call.Pos()))
				return true
			}
			kind := strings.ToLower(strings.TrimSuffix(sel.Sel.Name, "Var"))
			flags = append(flags, fmt.Sprintf("flag   transcode -%s %s", strings.Trim(lit.Value, `"`), kind))
			return true
		})
	}
	sort.Strings(flags)
	lines = append(lines, flags...)

	got := strings.Join(lines, "\n") + "\n"
	const golden = "testdata/knobs.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the settable surface changed (%d knobs, golden has %d); if intended, rerun with -update and account for every line in CHANGES.md\n%s",
			len(lines), strings.Count(string(want), "\n"), lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only one side has ("-" golden, "+" rendered).
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]--
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]++
	}
	var out []string
	for l, n := range count {
		switch {
		case n < 0:
			out = append(out, "- "+l)
		case n > 0:
			out = append(out, "+ "+l)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a][2:] < out[b][2:] })
	return strings.Join(out, "\n")
}

// moduleInterfaces lists the interfaces a method call can go through:
// error, the standard-library interfaces the module's types are
// passed as, and every interface the module declares, each with the path of
// the package that declares it ("" for error).
func moduleInterfaces(t *testing.T) ([]*types.Interface, []string) {
	m := load(t)
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	paths := []string{""}
	for _, ref := range [][2]string{
		{"fmt", "Stringer"}, {"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"},
		{"net/http", "Handler"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
		{"sort", "Interface"},
	} {
		sp, err := m.std.Import(ref[0])
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, sp.Scope().Lookup(ref[1]).Type().Underlying().(*types.Interface))
		paths = append(paths, ref[0])
	}
	for path, p := range m.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
					paths = append(paths, path)
				}
			}
		}
	}
	return ifaces, paths
}

func TestNoOrphans(t *testing.T) {
	m := load(t)

	// Every object a production file names.
	used := map[types.Object]bool{}
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			used[obj] = true
		}
	}

	// A method reached through an interface is named on the interface, not
	// on the type: collect the interfaces such calls can go through.
	ifaces, _ := moduleInterfaces(t)
	viaInterface := func(recv types.Type, method string) bool {
		ptr := types.NewPointer(recv)
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method && types.Implements(ptr, it) {
					return true
				}
			}
		}
		return false
	}

	orphans := map[string]bool{}
	exported := 0
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
			exported++
			switch o := obj.(type) {
			case *types.Func, *types.Var:
				if !used[o] {
					orphans[p.types.Name()+"."+name] = true
				}
			case *types.TypeName:
				named, ok := o.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					meth := named.Method(i)
					if !meth.Exported() {
						continue
					}
					exported++
					if !used[meth] && !viaInterface(named, meth.Name()) {
						orphans[p.types.Name()+"."+name+"."+meth.Name()] = true
					}
				}
			}
		}
	}
	t.Logf("%d exported package-level names and methods under internal/, %d orphans, %d allowlisted",
		exported, len(orphans), len(orphanAllow))

	var names []string
	for name := range orphans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := orphanAllow[name]; !ok {
			t.Errorf("%s has no caller outside tests: delete it, unexport it, or add it to orphanAllow with the reason it stays", name)
		}
	}
	for name, reason := range orphanAllow {
		if !orphans[name] {
			t.Errorf("orphanAllow lists %s, which gained a production caller or no longer exists: drop the entry", name)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("orphanAllow entry %s has no reason", name)
		}
	}
}
