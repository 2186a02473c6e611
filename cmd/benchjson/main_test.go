package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeReport records rep as a document in dir and returns its path.
func writeReport(t *testing.T, dir, name string, rep Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareHostMetadata: -compare exits 2 when the documents' host
// metadata differ and 0 with -force or on the same host.
func TestCompareHostMetadata(t *testing.T) {
	dir := t.TempDir()
	results := []Result{{Name: "BenchmarkX", Procs: 2, Runs: 10, NsPerOp: 100}}
	host := Report{Goos: "linux", Goarch: "amd64", CPU: "cpu-a", Nproc: 2, GOMAXPROCS: 2, Results: results}
	a := writeReport(t, dir, "a.json", host)
	same := writeReport(t, dir, "same.json", host)
	other := host
	other.Nproc, other.GOMAXPROCS = 4, 1
	b := writeReport(t, dir, "b.json", other)
	legacy := host
	legacy.Nproc, legacy.GOMAXPROCS = 0, 0
	old := writeReport(t, dir, "old.json", legacy)

	for _, c := range []struct {
		name          string
		oldPath, path string
		force         bool
		want          int
	}{
		{"same host", a, same, false, 0},
		{"different host", a, b, false, 2},
		{"different host, forced", a, b, true, 0},
		{"no metadata recorded", old, a, false, 2},
	} {
		var stdout, stderr bytes.Buffer
		if got := runCompare(&stdout, &stderr, c.oldPath, c.path, 0, c.force); got != c.want {
			t.Errorf("%s: exit %d, want %d (stderr %q)", c.name, got, c.want, stderr.String())
		}
		if differs := strings.Contains(stdout.String(), "HOST DIFFERS"); differs != (c.name != "same host") {
			t.Errorf("%s: HOST DIFFERS printed = %v:\n%s", c.name, differs, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	runCompare(&stdout, &stderr, a, b, 0, true)
	for _, want := range []string{"HOST DIFFERS nproc 2 -> 4", "HOST DIFFERS gomaxprocs 2 -> 1"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("missing %q in:\n%s", want, stdout.String())
		}
	}
}

// TestCompareRegressionGateOnSameHost: the -threshold gate still exits
// 1 on a regression between documents from one host.
func TestCompareRegressionGateOnSameHost(t *testing.T) {
	dir := t.TempDir()
	rep := Report{CPU: "cpu-a", Nproc: 2, GOMAXPROCS: 2,
		Results: []Result{{Name: "BenchmarkX", Procs: 2, Runs: 10, NsPerOp: 100}}}
	a := writeReport(t, dir, "a.json", rep)
	rep.Results = []Result{{Name: "BenchmarkX", Procs: 2, Runs: 10, NsPerOp: 150}}
	b := writeReport(t, dir, "b.json", rep)
	var stdout, stderr bytes.Buffer
	if got := runCompare(&stdout, &stderr, a, b, 10, false); got != 1 {
		t.Errorf("exit %d, want 1 (stderr %q)", got, stderr.String())
	}
}
