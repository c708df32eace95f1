package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The analyzer tests run against the hermetic GOPATH-style tree under
// testdata/src: module path "bsub", stdlib stubs alongside it. Expected
// findings are `// want `regex`` comments on the offending line, in the
// style of x/tools analysistest.

func fixtureProg(t *testing.T) *Program {
	t.Helper()
	prog, err := LoadFixture(filepath.Join("testdata", "src"), "bsub")
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

type wantKey struct {
	file string
	line int
}

// collectWants extracts want-comment regexes from one fixture package.
func collectWants(t *testing.T, prog *Program, pkg *Package) map[wantKey]*regexp.Regexp {
	t.Helper()
	wants := map[wantKey]*regexp.Regexp{}
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				raw := strings.TrimSpace(strings.TrimPrefix(text, "want "))
				raw = strings.Trim(raw, "`")
				re, err := regexp.Compile(raw)
				if err != nil {
					t.Fatalf("bad want regex %q: %v", raw, err)
				}
				pos := prog.Fset.Position(c.Pos())
				key := wantKey{pos.Filename, pos.Line}
				if _, dup := wants[key]; dup {
					t.Fatalf("%s:%d: more than one want comment on a line", pos.Filename, pos.Line)
				}
				wants[key] = re
			}
		}
	}
	return wants
}

// checkFixture runs one analyzer over the whole fixture module, restricts
// findings to pkgPath, and diffs them against that package's want
// comments. Returns the analyzer-wide suppressed count.
func checkFixture(t *testing.T, a *Analyzer, pkgPath string) int {
	t.Helper()
	prog := fixtureProg(t)
	pkg := prog.Packages[pkgPath]
	if pkg == nil {
		t.Fatalf("fixture package %s not loaded", pkgPath)
	}
	findings, suppressed := prog.Run(a)

	inPkg := map[string]bool{}
	for _, f := range pkg.Filenames {
		inPkg[f] = true
	}
	wants := collectWants(t, prog, pkg)
	matched := map[wantKey]bool{}
	for _, d := range findings {
		if !inPkg[d.Pos.Filename] {
			continue
		}
		key := wantKey{d.Pos.Filename, d.Pos.Line}
		re, ok := wants[key]
		if !ok {
			t.Errorf("unexpected finding: %s", d)
			continue
		}
		if !re.MatchString(d.Message) {
			t.Errorf("%s:%d: got %q, want match for %q", d.Pos.Filename, d.Pos.Line, d.Message, re)
			continue
		}
		matched[key] = true
	}
	for key := range wants {
		if !matched[key] {
			t.Errorf("%s:%d: expected finding matching %q, got none", key.file, key.line, wants[key])
		}
	}
	return suppressed
}

func TestHotpathAllocFixture(t *testing.T) {
	if got := checkFixture(t, HotpathAlloc, "bsub/hotfix"); got != 1 {
		t.Errorf("suppressed = %d, want 1 (the //lint:ignore in hotfix)", got)
	}
}

func TestDeterminismFixture(t *testing.T) {
	checkFixture(t, Determinism, "bsub/internal/core")
}

func TestDeterminismSimFixture(t *testing.T) {
	// The sharded-runner patterns: map-ordered shard merges, ambient RNG
	// in pair streams, wall clocks in the event loop. The baselines and
	// the message store they share with the engine run under the same
	// executor.
	for _, rel := range []string{
		"internal/sim", "internal/workload", "internal/metrics",
		"internal/xrand", "internal/tracegen",
		"internal/msgstore", "internal/protocol",
	} {
		if !Determinism.Applies(rel) {
			t.Errorf("determinism must apply to %s", rel)
		}
	}
	checkFixture(t, Determinism, "bsub/internal/sim")
}

func TestDeterminismScopedOut(t *testing.T) {
	// bsub/other reads the wall clock and iterates maps: legal outside
	// the deterministic core.
	if Determinism.Applies("other") {
		t.Error("determinism must not apply to package other")
	}
	checkFixture(t, Determinism, "bsub/other")
}

// The locks analyzer answers two questions at every call and acquire
// site; the livenode and mesh fixtures plant blocking operations under
// a lock, lockorderfix plants rank inversions.

func TestLockIOFixture(t *testing.T) {
	checkFixture(t, Locks, "bsub/internal/livenode")
}

func TestLockIOMeshFixture(t *testing.T) {
	if !Locks.Applies("internal/mesh") {
		t.Fatal("locks must apply to internal/mesh")
	}
	if Locks.Applies("internal/meshier") {
		t.Error("locks must not apply to sibling packages by prefix")
	}
	checkFixture(t, Locks, "bsub/internal/mesh")
}

func TestWireErrFixture(t *testing.T) {
	checkFixture(t, WireErr, "bsub/internal/tcbf")
}

func TestWireErrScope(t *testing.T) {
	// PR 10 widened the analyzer beyond livenode/tcbf to every package
	// with a wire codec.
	for _, rel := range []string{
		"internal/livenode", "internal/tcbf", "internal/mesh",
	} {
		if !WireErr.Applies(rel) {
			t.Errorf("wireerr must apply to %s", rel)
		}
	}
	if WireErr.Applies("internal/engine") {
		t.Error("wireerr must not apply to internal/engine")
	}
}

func TestLifecycleFixture(t *testing.T) {
	for _, rel := range []string{
		"internal/livenode", "internal/mesh", "internal/sim",
		"internal/mesh/lifecyclefix",
	} {
		if !Lifecycle.Applies(rel) {
			t.Errorf("lifecycle must apply to %s", rel)
		}
	}
	if Lifecycle.Applies("internal/engine") || Lifecycle.Applies("internal/simmer") {
		t.Error("lifecycle scope leaked to unrelated packages")
	}
	checkFixture(t, Lifecycle, "bsub/internal/mesh/lifecyclefix")
}

func TestLifecycleMeshFixtureClean(t *testing.T) {
	// The locks mesh fixture's spawn-under-lock idiom (Add then go with
	// a deferred Done) must stay legal under lifecycle too. That package
	// carries locks want comments, so diff by hand: no lifecycle
	// finding may land in its files.
	prog := fixtureProg(t)
	pkg := prog.Packages["bsub/internal/mesh"]
	if pkg == nil {
		t.Fatal("fixture package bsub/internal/mesh not loaded")
	}
	inPkg := map[string]bool{}
	for _, f := range pkg.Filenames {
		inPkg[f] = true
	}
	findings, _ := prog.Run(Lifecycle)
	for _, d := range findings {
		if inPkg[d.Pos.Filename] {
			t.Errorf("lifecycle flagged the tracked spawn idiom: %s", d)
		}
	}
}

func TestLockOrderFixture(t *testing.T) {
	if !Locks.Applies("internal/mesh") || !Locks.Applies("internal/livenode") {
		t.Fatal("locks must apply to internal/mesh and internal/livenode")
	}
	if Locks.Applies("internal/engine") {
		t.Error("locks must not apply to internal/engine")
	}
	checkFixture(t, Locks, "bsub/internal/mesh/lockorderfix")
}

func TestByName(t *testing.T) {
	got, err := ByName("wireerr, locks")
	if err != nil || len(got) != 2 || got[0].Name != "wireerr" || got[1].Name != "locks" {
		t.Errorf("ByName = %v, %v", got, err)
	}
	// A repeated name selects its analyzer once, so its findings are
	// not reported twice.
	got, err = ByName("hotpathalloc,locks,hotpathalloc")
	if err != nil || len(got) != 2 || got[0].Name != "hotpathalloc" || got[1].Name != "locks" {
		t.Errorf("ByName(repeated) = %v, %v", got, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("ByName(nosuch) should fail")
	}
	if _, err := ByName(""); err == nil {
		t.Error("ByName(empty) should fail")
	}
}
