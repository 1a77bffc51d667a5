package surface

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The reach census (ROADMAP item 11): TestNoOrphans asks whether any
// production file names a function; the census asks whether any production
// command line runs it. scripts/drivers.sh holds every such command line —
// the smoke scenarios, all six experiments, the benchmark untraced and
// traced — and CI's reach job runs them once on binaries built with
// "-cover -coverpkg=repro/...", then runs TestReach over the counters.
//
// testdata/unreached.golden lists the non-test functions outside bench/
// that no driver executes, one "pkg.Recv.Func<TAB>verdict" line each (pkg
// is the package's directory name; no file names or line numbers, so edits
// do not churn it), sorted. A verdict is one of
//
//	error-path: TestName   a fault the drivers cannot provoke; TestName drives it
//	test-seam              only tests reach it, and orphanAllow says why it
//	                       stays; the two lists name the same functions
//	interface: reason      a method that exists to satisfy an interface no
//	                       driver calls it through
//
// Locally:
//
//	rm -rf /tmp/reach && mkdir -p /tmp/reach
//	GOCOVERDIR=/tmp/reach BUILDFLAGS='-cover -coverpkg=repro/...' BENCH_SECONDS=2 \
//	    OUT=/tmp/reach-out scripts/drivers.sh all
//	REPRO_COVERDIR=/tmp/reach go test -run TestReach -count=1 ./internal/surface
const unreachedGolden = "testdata/unreached.golden"

var verdictRE = regexp.MustCompile(`^(error-path: ((Test|Fuzz)\w+)|test-seam|interface: \S.*)$`)

// readUnreached parses the golden into name → verdict.
func readUnreached(t *testing.T) map[string]string {
	return readVerdicts(t, unreachedGolden, verdictRE, "error-path: TestName, test-seam, interface: reason")
}

// readVerdicts parses a census golden of "NAME<TAB>VERDICT" lines ("#"
// lines are comments) into name → verdict, failing on a line out of order,
// a duplicate or a verdict re does not match; kinds names the verdicts re
// accepts.
func readVerdicts(t *testing.T, golden string, re *regexp.Regexp, kinds string) map[string]string {
	t.Helper()
	f, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	prev := ""
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, verdict, ok := strings.Cut(line, "\t")
		switch {
		case !ok || name == "":
			t.Errorf("%s:%d: want NAME<TAB>VERDICT, got %q", golden, n, line)
			continue
		case !re.MatchString(verdict):
			t.Errorf("%s:%d: %s: verdict %q is none of %s", golden, n, name, verdict, kinds)
		case name <= prev:
			t.Errorf("%s:%d: %s is out of order or repeated (after %s)", golden, n, name, prev)
		}
		out[name] = verdict
		prev = name
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// censusFuncs names every non-test function of the module the census
// covers — everything outside bench/ — the way the golden and go tool
// covdata do: directory name, receiver type, function.
func censusFuncs(t *testing.T) map[string]*types.Func {
	m := load(t)
	out := map[string]*types.Func{}
	for p, pk := range m.pkgs {
		if strings.HasPrefix(p, "repro/bench") {
			continue
		}
		for _, f := range pk.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn := pk.info.Defs[fd.Name].(*types.Func)
					out[objKey(fn)] = fn
				}
			}
		}
	}
	return out
}

// objKey is the census name of a function: pkg.Func or pkg.Recv.Func.
func objKey(fn *types.Func) string {
	key := path.Base(fn.Pkg().Path()) + "."
	if recv := recvType(fn); recv != nil {
		key += recv.Name() + "."
	}
	return key + fn.Name()
}

// recvType is the named type a method is declared on, nil for a function.
func recvType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	if named, ok := typ.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// testNames lists the Test and Fuzz functions of every _test.go file.
func testNames(t *testing.T) map[string]bool {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	out := map[string]bool{}
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				out[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestUnreachedGolden keeps the golden honest without a coverage run: every
// line names a function that exists, every error path names a test that
// exists, every interface verdict names a method, and the test seams are
// exactly the names orphanAllow keeps.
func TestUnreachedGolden(t *testing.T) {
	golden := readUnreached(t)
	funcs := censusFuncs(t)
	tests := testNames(t)
	for name, verdict := range golden {
		fn := funcs[name]
		if fn == nil {
			t.Errorf("%s lists %s, which is no non-test function outside bench/", unreachedGolden, name)
			continue
		}
		m := verdictRE.FindStringSubmatch(verdict)
		if m[2] != "" && !tests[m[2]] {
			t.Errorf("%s: error-path names %s, which is no test", name, m[2])
		}
		if strings.HasPrefix(verdict, "interface:") && recvType(fn) == nil {
			t.Errorf("%s: an interface verdict needs a method, and %s is a function", name, name)
		}
		if _, allowed := orphanAllow[name]; verdict == "test-seam" && !allowed {
			t.Errorf("%s is a test-seam that orphanAllow does not list: move it into its package's tests, or allow it with the reason it stays", name)
		}
	}
	for name := range orphanAllow {
		if golden[name] != "test-seam" {
			t.Errorf("orphanAllow lists %s, which has no test-seam line in %s", name, unreachedGolden)
		}
	}
}

// TestReach compares a coverage run of every driver with the golden: a
// function the drivers leave at 0.0 % needs a line, a line whose function
// they ran is stale, and a function the census never saw lives in a package
// no driver links. It runs only when REPRO_COVERDIR names the counters.
func TestReach(t *testing.T) {
	dir := os.Getenv("REPRO_COVERDIR")
	if dir == "" {
		t.Skip("REPRO_COVERDIR is not set: no coverage run to check")
	}
	out, err := exec.Command("go", "tool", "covdata", "func", "-i="+dir).Output()
	if err != nil {
		t.Fatalf("go tool covdata func: %v", err)
	}
	// Lines read "repro/internal/core/session.go:200:\t*Session.Name\t65.9%".
	reached := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 3 || !strings.HasPrefix(fields[0], "repro/") || strings.HasPrefix(fields[0], "repro/bench/") {
			continue
		}
		file, _, _ := strings.Cut(fields[0], ":")
		name := path.Base(path.Dir(file)) + "." + strings.TrimPrefix(fields[1], "*")
		reached[name] = reached[name] || fields[2] != "0.0%"
	}
	if len(reached) == 0 {
		t.Fatalf("no function of the module in %s", dir)
	}
	golden := readUnreached(t)
	names := make([]string, 0, len(reached))
	for name := range reached {
		names = append(names, name)
	}
	sort.Strings(names)
	var unreached int
	for _, name := range names {
		ran := reached[name]
		_, listed := golden[name]
		switch {
		case !ran && !listed:
			t.Errorf("%s: no driver runs it; delete it, drive it from scripts/drivers.sh, or give it a verdict in %s", name, unreachedGolden)
		case ran && listed:
			t.Errorf("%s: a driver runs it now; drop its line from %s", name, unreachedGolden)
		}
		if !ran {
			unreached++
		}
	}
	var missing []string
	for name := range censusFuncs(t) {
		if _, ok := reached[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s: not in the coverage run; its package is linked into no driver", name)
	}
	t.Logf("%d functions in the census, %d unreached, %d golden lines", len(reached), unreached, len(golden))
}
