package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFixtures runs each check over its testdata fixture package and
// compares the diagnostics against the fixture's //want annotations:
// a line expecting diagnostics carries `//want <check> [<check> ...]`.
// Every fixture both fires (annotated lines) and stays silent
// (unannotated constructs, suppressed lines, out-of-scope runs).
func TestFixtures(t *testing.T) {
	cases := []struct {
		name    string
		dir     string
		pkgPath string
		checks  []*Check
		// ignoreWants re-runs a fixture under a package path where the
		// check must not apply: every annotation must stay silent.
		ignoreWants bool
	}{
		{name: "wallclock", dir: "wallclock", pkgPath: "repro/internal/machine/fixture", checks: []*Check{WallclockCheck}},
		{name: "wallclock-out-of-scope", dir: "wallclock", pkgPath: "repro/internal/figures/fixture", checks: []*Check{WallclockCheck}, ignoreWants: true},
		// The metrics/span collectors run inside the simulation: obs is a
		// sim scope and the wallclock check fires there.
		{name: "wallclock-obs", dir: "wallclock", pkgPath: "repro/internal/obs/fixture", checks: []*Check{WallclockCheck}},
		// The runlog/heartbeat telemetry sinks measure host wall time by
		// design; they live in internal/core, which must stay out of scope.
		{name: "wallclock-runlog-host-side", dir: "wallclock", pkgPath: "repro/internal/core/fixture", checks: []*Check{WallclockCheck}, ignoreWants: true},
		{name: "unseededrand", dir: "unseededrand", pkgPath: "repro/internal/workload/fixture", checks: []*Check{UnseededRandCheck}},
		{name: "unseededrand-out-of-scope", dir: "unseededrand", pkgPath: "repro/cmd/fixture", checks: []*Check{UnseededRandCheck}, ignoreWants: true},
		{name: "maporder", dir: "maporder", pkgPath: "repro/internal/figures/fixture", checks: []*Check{MapOrderCheck}},
		{name: "rawconc", dir: "rawconc", pkgPath: "repro/internal/apps/fixture", checks: []*Check{RawConcCheck}},
		{name: "rawconc-psync", dir: "rawconc", pkgPath: "repro/internal/psync", checks: []*Check{RawConcCheck}},
		{name: "rawconc-out-of-scope", dir: "rawconc", pkgPath: "repro/internal/sim", checks: []*Check{RawConcCheck}, ignoreWants: true},
		// A worker-pool barrier idiom (worker goroutines, epoch atomics,
		// park channels) is out of scope inside internal/sim, but must
		// fire in application code, including method calls on
		// sync/atomic-typed receivers.
		{name: "rawconc-shard-app", dir: "rawconc_shard", pkgPath: "repro/internal/apps/fixture", checks: []*Check{RawConcCheck}},
		{name: "rawconc-shard-sim", dir: "rawconc_shard", pkgPath: "repro/internal/sim", checks: []*Check{RawConcCheck}, ignoreWants: true},
		{name: "fingerprint-good", dir: "fingerprint_good", pkgPath: "repro/internal/core", checks: []*Check{FingerprintCheck}},
		{name: "fingerprint-missing-field", dir: "fingerprint_missing_field", pkgPath: "repro/internal/core", checks: []*Check{FingerprintCheck}},
		{name: "fingerprint-reference-fields", dir: "fingerprint_reference", pkgPath: "repro/internal/core", checks: []*Check{FingerprintCheck}},
		{name: "fingerprint-absent", dir: "fingerprint_absent", pkgPath: "repro/internal/core", checks: []*Check{FingerprintCheck}},
		{name: "fingerprint-absent-elsewhere", dir: "fingerprint_absent", pkgPath: "repro/internal/model", checks: []*Check{FingerprintCheck}, ignoreWants: true},
		{name: "intmath", dir: "intmath", pkgPath: "repro/internal/sim/fixture", checks: []*Check{IntMathCheck}},
		// Float math is fine outside the machine model: apps compute on
		// simulated data and figures post-process results.
		{name: "intmath-out-of-scope", dir: "intmath", pkgPath: "repro/internal/figures/fixture", checks: []*Check{IntMathCheck}, ignoreWants: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			fset := token.NewFileSet()
			files, wants := parseFixture(t, fset, dir, tc.ignoreWants)
			diags, err := CheckPackage(fset, tc.pkgPath, files, tc.checks)
			if err != nil {
				t.Fatalf("CheckPackage: %v", err)
			}
			got := make(map[string][]string)
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
				got[key] = append(got[key], d.Check)
			}
			for key, names := range got {
				sort.Strings(names)
				if want := wants[key]; !equalStrings(names, want) {
					t.Errorf("%s: got %v, want %v", key, names, want)
				}
			}
			for key, names := range wants {
				if _, ok := got[key]; !ok {
					t.Errorf("%s: missing expected diagnostics %v", key, names)
				}
			}
		})
	}
}

// parseFixture parses every fixture file in dir and collects its //want
// annotations as "file:line" -> sorted check names.
func parseFixture(t *testing.T, fset *token.FileSet, dir string, ignoreWants bool) ([]*ast.File, map[string][]string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	wants := make(map[string][]string)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		if ignoreWants {
			continue
		}
		for i, line := range strings.Split(string(src), "\n") {
			_, rest, ok := strings.Cut(line, "//want ")
			if !ok {
				continue
			}
			names := strings.Fields(rest)
			sort.Strings(names)
			wants[fmt.Sprintf("%s:%d", e.Name(), i+1)] = names
		}
	}
	return files, wants
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCallPathFixture runs the interprocedural callpath check over a
// four-package fixture module: a host helper package (clock, global
// rand, goroutine spawn), a sim-engine package whose concurrency is
// sanctioned, a machine-like sim package, and an application package.
// Cross-package boundary blame, direct-call deferral to the syntactic
// checks, and the engine barrier are all only observable with more than
// one package, which is why this does not fit the TestFixtures harness.
func TestCallPathFixture(t *testing.T) {
	specs := []struct{ dir, path string }{
		{dir: "callpath_host", path: "repro/internal/hostfix"},
		{dir: "callpath_engine", path: "repro/internal/sim/fixture"},
		{dir: "callpath_sim", path: "repro/internal/machine/fixture"},
		{dir: "callpath_app", path: "repro/internal/apps/fixture"},
	}
	fset := token.NewFileSet()
	imp := &moduleImporter{
		source:  importer.ForCompiler(fset, "source", nil),
		checked: map[string]*types.Package{},
	}
	var pkgs []*Package
	wants := make(map[string][]string)
	for _, s := range specs {
		dir := filepath.Join("testdata", "src", s.dir)
		files, w := parseFixture(t, fset, dir, false)
		for k, v := range w {
			wants[k] = v
		}
		pkg := &Package{Path: s.path, Fset: fset, Files: files}
		if err := typeCheck(fset, pkg, imp); err != nil {
			t.Fatalf("type-checking %s: %v", s.path, err)
		}
		imp.checked[s.path] = pkg.Pkg
		pkgs = append(pkgs, pkg)
	}
	diags := Run(pkgs, []*Check{CallPathCheck})
	got := make(map[string][]string)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		got[key] = append(got[key], d.Check)
	}
	for key, names := range got {
		sort.Strings(names)
		if want := wants[key]; !equalStrings(names, want) {
			t.Errorf("%s: got %v, want %v", key, names, want)
		}
	}
	for key, names := range wants {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: missing expected diagnostics %v", key, names)
		}
	}
	// The report must carry the full chain to the forbidden function.
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "machfix.Stamp -> hostfix.NowMillis -> time.Now") {
			found = true
		}
	}
	if !found {
		t.Errorf("no diagnostic carries the Stamp -> NowMillis -> time.Now chain:\n%v", diags)
	}
}

// TestStaleAllow checks the audit half of suppression handling: a
// well-formed allow that suppresses nothing is itself a diagnostic.
func TestStaleAllow(t *testing.T) {
	const src = `package fixture

func fine(a, b int) int {
	//lint:allow simlint/maporder nothing on this line ever fired
	return a + b
}

func covered(m map[int]int) []int {
	var out []int
	for k := range m {
		//lint:allow simlint/maporder order does not matter here
		out = append(out, k)
	}
	return out
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "stale.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := CheckPackage(fset, "repro/internal/figures/fixture", []*ast.File{f}, []*Check{MapOrderCheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Check != "allow" ||
		!strings.Contains(diags[0].Message, "suppresses nothing") {
		t.Fatalf("want exactly one stale-allow diagnostic, got:\n%v", diags)
	}
	if diags[0].Pos.Line != 4 {
		t.Errorf("stale allow reported at line %d, want 4", diags[0].Pos.Line)
	}

	// The same stale allow is NOT reported when its check is deselected:
	// a -checks run says nothing about the others.
	none, err := CheckPackage(fset, "repro/internal/figures/fixture", []*ast.File{f}, []*Check{WallclockCheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("stale maporder allow reported under -checks wallclock:\n%v", none)
	}
}

// TestSuppressionValidation checks that malformed //lint:allow comments
// are themselves reported: a suppression may not silently fail to
// suppress.
func TestSuppressionValidation(t *testing.T) {
	const src = `package fixture

func a(m map[int]int) []int {
	var out []int
	//lint:allow simlint/maporder
	for k := range m {
		out = append(out, k)
	}
	return out
}

//lint:allow simlint/nosuchcheck because reasons
//lint:allow vet/printf wrong namespace
func b() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allow.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := CheckPackage(fset, "repro/internal/figures/fixture", []*ast.File{f}, []*Check{MapOrderCheck})
	if err != nil {
		t.Fatal(err)
	}
	var allow, maporder int
	for _, d := range diags {
		switch d.Check {
		case "allow":
			allow++
		case "maporder":
			maporder++
		}
	}
	if allow != 3 {
		t.Errorf("got %d allow diagnostics, want 3 (missing reason, unknown check, wrong namespace):\n%v", allow, diags)
	}
	// The reasonless suppression must not suppress: the append inside
	// the map range still fires.
	if maporder != 1 {
		t.Errorf("got %d maporder diagnostics, want 1 (reasonless lint:allow must not suppress):\n%v", maporder, diags)
	}
}

// TestSelect covers the check-subset flag parsing.
func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(Checks()) {
		t.Fatalf("Select(\"\") = %d checks, err %v", len(all), err)
	}
	two, err := Select("maporder, simlint/wallclock")
	if err != nil || len(two) != 2 || two[0].Name != "maporder" || two[1].Name != "wallclock" {
		t.Fatalf("Select subset = %v, err %v", two, err)
	}
	if _, err := Select("nosuch"); err == nil {
		t.Fatal("Select(nosuch) did not error")
	}
}
