package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lpmem/internal/regress"
)

// fastArgs restricts runs to the two cheapest experiments with a single
// iteration so the end-to-end tests stay quick.
func fastArgs(dir string, extra ...string) []string {
	args := []string{
		"-filter", "E4,E17",
		"-iterations", "1",
		"-baseline", filepath.Join(dir, "bench.json"),
		"-golden", filepath.Join(dir, "golden"),
	}
	return append(args, extra...)
}

// TestRecordThenCheck: a fresh record must immediately pass its own
// check, and the artifacts must land on disk.
func TestRecordThenCheck(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := run(append(fastArgs(dir), "-record"), &out, &errOut); code != 0 {
		t.Fatalf("record exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"golden/E4.json", "golden/E17.json", "bench.json"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Fatalf("record did not produce %s: %v", want, err)
		}
	}
	out.Reset()
	errOut.Reset()
	if code := run(append(fastArgs(dir), "-check"), &out, &errOut); code != 0 {
		t.Fatalf("check after record exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "match goldens and perf baseline") {
		t.Fatalf("check output: %s", out.String())
	}
}

// TestCheckDetectsTableDrift: corrupting a committed golden row makes
// the check exit non-zero and name the drift.
func TestCheckDetectsTableDrift(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := run(append(fastArgs(dir), "-record"), &out, &errOut); code != 0 {
		t.Fatalf("record exit %d, stderr: %s", code, errOut.String())
	}
	path := filepath.Join(dir, "golden", "E17.json")
	var snap regress.Snapshot
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Rows[0][len(snap.Rows[0])-1] = "corrupted"
	if err := regress.WriteGolden(filepath.Join(dir, "golden"), snap); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := run(append(fastArgs(dir), "-check"), &out, &errOut); code != 1 {
		t.Fatalf("check with corrupt golden exit %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "E17") || !strings.Contains(errOut.String(), "rows") {
		t.Fatalf("drift report: %s", errOut.String())
	}
}

// TestCheckJSONReport: -json emits a structured report whose OK flag
// matches the exit code.
func TestCheckJSONReport(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := run(append(fastArgs(dir), "-record", "-json"), &out, &errOut); code != 0 {
		t.Fatalf("record exit %d, stderr: %s", code, errOut.String())
	}
	var rec report
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("record -json: %v\n%s", err, out.String())
	}
	if !rec.OK || rec.Mode != "record" || len(rec.Measurements) != 2 {
		t.Fatalf("record report: %+v", rec)
	}

	out.Reset()
	errOut.Reset()
	if code := run(append(fastArgs(dir), "-check", "-json"), &out, &errOut); code != 0 {
		t.Fatalf("check exit %d, stderr: %s", code, errOut.String())
	}
	var chk report
	if err := json.Unmarshal(out.Bytes(), &chk); err != nil {
		t.Fatalf("check -json: %v\n%s", err, out.String())
	}
	if !chk.OK || chk.Mode != "check" || len(chk.Drifts) != 0 || len(chk.Measurements) != 2 {
		t.Fatalf("check report: %+v", chk)
	}
}

// TestCheckMissingBaseline: checking without committed artifacts fails
// with a diagnostic rather than succeeding vacuously.
func TestCheckMissingBaseline(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := run(append(fastArgs(dir), "-check"), &out, &errOut); code != 1 {
		t.Fatalf("check without baseline exit %d, want 1", code)
	}
}

// TestUsageErrors: flag misuse exits 2.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                              // neither mode
		{"-record", "-check"},           // both modes
		{"-check", "stray"},             // positional args
		{"-record", "-filter", "E99"},   // unknown experiment
		{"-record", "-filter", " , , "}, // empty selection
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("args %v exit %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
	}
}

// TestRecordNewFileInheritsOptimizations: recording into a baseline file
// that does not exist yet carries the default baseline's optimization
// log forward; recording into an existing file keeps that file's own log.
func TestRecordNewFileInheritsOptimizations(t *testing.T) {
	dir := t.TempDir()
	exps, err := selectExperiments("E4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{
		iterations: 1,
		baseline:   filepath.Join(dir, "new.json"),
		goldenDir:  filepath.Join(dir, "golden"),
		inherit:    filepath.Join(dir, "default.json"),
	}
	log := []regress.Optimization{{
		Target: "internal/x", Description: "earlier win",
		Before: map[string]int64{"E4": 2}, After: map[string]int64{"E4": 1},
	}}
	if err := regress.WriteBaseline(cfg.inherit, &regress.Baseline{Optimizations: log}); err != nil {
		t.Fatal(err)
	}
	record := func() *regress.Baseline {
		t.Helper()
		var out, errOut bytes.Buffer
		if code := doRecord(cfg, exps, func(string) {}, &out, &errOut); code != 0 {
			t.Fatalf("record exit %d, stderr: %s", code, errOut.String())
		}
		got, err := regress.ReadBaseline(cfg.baseline)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := record(); len(got.Optimizations) != 1 || got.Optimizations[0].Description != "earlier win" {
		t.Fatalf("new baseline optimizations = %+v, want the inherited log", got.Optimizations)
	}

	// The file now exists: its own log wins over the default's.
	if err := regress.WriteBaseline(cfg.inherit, &regress.Baseline{}); err != nil {
		t.Fatal(err)
	}
	if got := record(); len(got.Optimizations) != 1 {
		t.Fatalf("re-recorded baseline optimizations = %+v, want its own log kept", got.Optimizations)
	}
}
