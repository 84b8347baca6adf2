package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: shortcutpa/internal/congest
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngine/family=torus/workers=1         	       3	   7275667 ns/op	    363783 ns/round	     802 B/op	      44 allocs/op
BenchmarkEngine/family=star/workers=8          	       3	   5967325 ns/op	    298366 ns/round	    1018 B/op	     372 allocs/op
PASS
ok  	shortcutpa/internal/congest	9.451s
`

func TestParseSample(t *testing.T) {
	snap, err := parse(bufio.NewScanner(strings.NewReader(sample)), "n")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(snap.Benchmarks))
	}
	b := snap.Benchmarks[0]
	if b.Name != "BenchmarkEngine/family=torus/workers=1" || b.Runs != 3 {
		t.Fatalf("bad first benchmark: %+v", b)
	}
	if b.Metrics["allocs/op"] != 44 || b.Metrics["ns/round"] != 363783 {
		t.Fatalf("bad metrics: %+v", b.Metrics)
	}
	if snap.Env["goos"] != "linux" || snap.Env["cpu"] == "" {
		t.Fatalf("bad env: %+v", snap.Env)
	}
	// Raw must keep the benchmark lines verbatim.
	if len(snap.Raw) != 6 {
		t.Fatalf("raw kept %d lines, want 6 (4 env + 2 results)", len(snap.Raw))
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(bufio.NewScanner(strings.NewReader("PASS\n")), ""); err == nil {
		t.Fatal("empty input did not error")
	}
}

// gateText runs the gate on text and returns its output and error.
func gateText(text string) (string, error) {
	var out strings.Builder
	err := gate(strings.NewReader(text), &out)
	return out.String(), err
}

// TestGateCommittedSnapshots replays every committed snapshot's raw lines
// through the gate. The pre-BENCH_9 snapshots predate the current ceilings
// and fail on every checked row; the counts pin the rule table to the rows
// it checked when it was a Makefile awk program. Any later snapshot must
// pass.
func TestGateCommittedSnapshots(t *testing.T) {
	want := map[string]string{
		"BENCH_2.json":  "gate: 27 of 27 rows over their allocs/op ceiling",
		"BENCH_3.json":  "gate: 27 of 27 rows over their allocs/op ceiling",
		"BENCH_4.json":  "gate: 36 of 36 rows over their allocs/op ceiling",
		"BENCH_5.json":  "gate: 36 of 36 rows over their allocs/op ceiling",
		"BENCH_6.json":  "gate: 36 of 36 rows over their allocs/op ceiling",
		"BENCH_7.json":  "gate: 48 of 48 rows over their allocs/op ceiling",
		"BENCH_9.json":  "48 rows within",
		"BENCH_10.json": "84 rows within",
		"BENCH_12.json": "108 rows within",
		"BENCH_13.json": "114 rows within",
		"BENCH_14.json": "114 rows within",
		"BENCH_15.json": "96 rows within",
		"BENCH_16.json": "102 rows within",
	}
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) < len(want) {
		t.Fatalf("found %d committed snapshots (%v), want at least %d", len(paths), err, len(want))
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out, err := gateText(strings.Join(snap.Raw, "\n"))
		w, pinned := want[filepath.Base(path)]
		switch {
		case !pinned && err != nil:
			t.Errorf("%s: later snapshot fails the gate: %v\n%s", path, err, out)
		case pinned && strings.HasPrefix(w, "gate:") && (err == nil || err.Error() != w):
			t.Errorf("%s: gate error %v, want %q", path, err, w)
		case pinned && !strings.HasPrefix(w, "gate:") && (err != nil || !strings.Contains(out, w)):
			t.Errorf("%s: gate %v, output %q, want a pass with %q", path, err, out, w)
		}
	}
}

func TestGateBreachNamesRowAndCeiling(t *testing.T) {
	out, err := gateText(sample + "BenchmarkEngine/family=torus/workers=4-2  5  123 ns/op  100 B/op  41 allocs/op\n")
	if err == nil {
		t.Fatalf("row over its ceiling passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkEngine/family=torus/workers=4-2 at 41 allocs/op exceeds pinned ceiling 40") {
		t.Fatalf("breach output does not name the row and its ceiling:\n%s", out)
	}
}

func TestGateFailsWhenNoRuleMatches(t *testing.T) {
	for _, text := range []string{
		"",
		"BenchmarkNetworkSetup/n=10000-2  5  123 ns/op  10 B/op  3 allocs/op\n",
		// Without -benchmem there is no allocs/op to check.
		"BenchmarkEngine/family=torus/workers=1-2  5  123 ns/op\n",
	} {
		if out, err := gateText(text); err == nil {
			t.Fatalf("gate passed input no rule checks: %q\n%s", text, out)
		}
	}
}

// writeSnapshot parses bench text into a snapshot file in a temp dir.
func writeSnapshot(t *testing.T, name, text string) string {
	t.Helper()
	snap, err := parse(bufio.NewScanner(strings.NewReader(text)), "")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestComparePairsAcrossHosts(t *testing.T) {
	old := writeSnapshot(t, "old.json", `BenchmarkEngine/family=torus/workers=1-2  5  100 ns/op  2 allocs/op
BenchmarkEngine/family=torus/workers=1-2  5  300 ns/op  2 allocs/op
BenchmarkEngine/family=torus/workers=1-2  5  200 ns/op  2 allocs/op
BenchmarkRouter/graph=torus32-2  5  50 ns/op
`)
	cur := writeSnapshot(t, "new.json", `BenchmarkEngine/family=torus/workers=1-8  5  150 ns/op  2 allocs/op
BenchmarkEngine/family=torus/workers=1-8  5  250 ns/op  2 allocs/op
BenchmarkNodeRand/first-8  5  7 ns/op
`)
	var out strings.Builder
	if err := run([]string{"compare", old, cur}, nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ns/op          200 [100, 300] 3 -> 200 [150, 250] 2  +0.0%",
		"allocs/op      2 [2, 2] 3 -> 2 [2, 2] 2  +0.0%",
		"BenchmarkRouter/graph=torus32",
		"only in " + old,
		"BenchmarkNodeRand/first",
		"only in " + cur,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "-2 ") || strings.Contains(out.String(), "-8 ") {
		t.Errorf("compare kept a -<GOMAXPROCS> suffix:\n%s", out.String())
	}
}

func TestCompareSnapshotWithItself(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"compare", "../../BENCH_16.json", "../../BENCH_16.json"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
	if len(lines) < 100 {
		t.Fatalf("self-compare printed %d lines, want one per (benchmark, unit)", len(lines))
	}
	for _, l := range lines {
		if !strings.HasSuffix(l, "  +0.0%") {
			t.Errorf("self-compare line is not +0.0%%: %s", l)
		}
	}
}
