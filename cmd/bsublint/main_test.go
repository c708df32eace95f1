package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var fixtureDir = filepath.Join("testdata", "module")

func runIn(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(dir, args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunReportsPlantedFindings(t *testing.T) {
	code, stdout, stderr := runIn(t, fixtureDir, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	lineFormat := regexp.MustCompile(`^[^:]+\.go:\d+: bsub/[a-z]+: .+$`)
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		if line == "" {
			continue
		}
		if !lineFormat.MatchString(line) {
			t.Errorf("malformed diagnostic line: %q", line)
		}
		lines = append(lines, line)
	}
	for _, want := range []string{
		`hot.go:\d+: bsub/hotpathalloc: hotpath function calls fmt.Sprintf, which allocates`,
		`internal/engine/clock.go:\d+: bsub/determinism: time.Now reads the wall clock`,
	} {
		re := regexp.MustCompile(want)
		found := false
		for _, line := range lines {
			if re.MatchString(line) {
				found = true
			}
		}
		if !found {
			t.Errorf("no diagnostic matching %q in:\n%s", want, stdout)
		}
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr summary missing: %q", stderr)
	}
}

func TestRunAnalyzerSubsetClean(t *testing.T) {
	// The fixture module has no livenode package, so the lockio-only run
	// comes back clean.
	code, stdout, stderr := runIn(t, fixtureDir, "-analyzers", "lockio", "./...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean run printed: %q", stdout)
	}
}

func TestRunList(t *testing.T) {
	code, stdout, _ := runIn(t, fixtureDir, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"claimsettle", "hotpathalloc", "determinism", "lockio", "wireerr"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout)
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	if code, _, _ := runIn(t, fixtureDir, "-analyzers", "nosuch"); code != 2 {
		t.Errorf("unknown analyzer: exit = %d, want 2", code)
	}
	if code, _, _ := runIn(t, fixtureDir, "-bogusflag"); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
	if code, _, _ := runIn(t, fixtureDir, "-format", "yaml"); code != 2 {
		t.Errorf("unknown format: exit = %d, want 2", code)
	}
}

func TestRunFormatJSON(t *testing.T) {
	code, stdout, _ := runIn(t, fixtureDir, "-format", "json", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s", code, stdout)
	}
	var got []jsonFinding
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatalf("stdout is not a JSON finding array: %v\n%s", err, stdout)
	}
	if len(got) == 0 {
		t.Fatal("json output has no findings; the fixture plants several")
	}
	for _, f := range got {
		if f.File == "" || f.Line <= 0 || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
		if !strings.HasPrefix(f.Analyzer, "bsub/") {
			t.Errorf("analyzer %q missing bsub/ prefix", f.Analyzer)
		}
		if filepath.IsAbs(f.File) {
			t.Errorf("file %q should be module-relative", f.File)
		}
	}
	found := false
	for _, f := range got {
		if f.File == "hot.go" && f.Analyzer == "bsub/hotpathalloc" {
			found = true
		}
	}
	if !found {
		t.Errorf("planted hot.go hotpathalloc finding missing from:\n%s", stdout)
	}
	// Findings must agree one-to-one with text mode, in the same order.
	_, text, _ := runIn(t, fixtureDir, "./...")
	textLines := strings.Split(strings.TrimSpace(text), "\n")
	if len(textLines) != len(got) {
		t.Fatalf("json has %d findings, text has %d lines", len(got), len(textLines))
	}
	for i, f := range got {
		want := regexp.MustCompile(regexp.QuoteMeta(f.File) + `:\d+: ` + regexp.QuoteMeta(f.Analyzer))
		if !want.MatchString(textLines[i]) {
			t.Errorf("finding %d: json %+v does not match text line %q", i, f, textLines[i])
		}
	}
}

func TestRunFormatJSONCleanEmitsEmptyArray(t *testing.T) {
	code, stdout, _ := runIn(t, fixtureDir, "-format", "json", "-analyzers", "lockio", "./...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean json run printed %q, want []", stdout)
	}
}

func TestRunFormatTextIsDefault(t *testing.T) {
	_, implicit, _ := runIn(t, fixtureDir, "./...")
	_, explicit, _ := runIn(t, fixtureDir, "-format", "text", "./...")
	if implicit != explicit {
		t.Errorf("-format text output differs from default:\n%q\nvs\n%q", explicit, implicit)
	}
}
