package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestListFlag(t *testing.T) {
	if err := run([]string{"-list"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	if err := run([]string{"-exp", "NOPE"}, io.Discard); err == nil {
		t.Fatal("unknown experiment ID did not error")
	}
}

func TestBadFlagFails(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, io.Discard); err == nil {
		t.Fatal("bad flag did not error")
	}
}

// TestProfileFlagsWriteFiles checks -cpuprofile/-memprofile produce
// non-empty pprof files around a real (cheap) experiment run.
func TestProfileFlagsWriteFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full experiment")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	if err := run([]string{"-exp", "A3", "-seed", "7", "-cpuprofile", cpu, "-memprofile", mem}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestJobsModeStreamsJSONL drives the serving mode through the CLI path: a
// small protocols x graphs x seeds spec over a shared pool must emit exactly
// one well-formed JSON object per expanded job, each carrying the stable
// field set.
func TestJobsModeStreamsJSONL(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-jobs", "graphs=torus:36,ladder:24;protocols=domset,verify;seeds=1,2",
		"-jobs-pool", "2",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&out)
	lines := 0
	for sc.Scan() {
		lines++
		var r map[string]any
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", lines, err, sc.Text())
		}
		for _, field := range []string{"job", "protocol", "family", "n", "seed", "reused", "rounds", "messages", "output", "ms"} {
			if _, ok := r[field]; !ok {
				t.Errorf("line %d lacks field %q: %s", lines, field, sc.Text())
			}
		}
		if _, ok := r["err"]; ok {
			t.Errorf("line %d reports a run error: %s", lines, sc.Text())
		}
	}
	if want := 2 * 2 * 2; lines != want {
		t.Fatalf("jobs mode emitted %d JSON lines, want %d", lines, want)
	}
}

// TestJobsBadSpecFails: a malformed spec is a CLI error, not a hang.
func TestJobsBadSpecFails(t *testing.T) {
	if err := run([]string{"-jobs", "graphs=nosuch:100"}, io.Discard); err == nil {
		t.Fatal("unknown graph family in -jobs did not error")
	}
}

// TestJobsScenarioFlag: -scenario attaches a fault scenario to every run
// (each JSONL line names it), is rejected without -jobs, and a malformed
// scenario is a CLI error.
func TestJobsScenarioFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-jobs", "graphs=torus:36;protocols=domset;seeds=1,2",
		"-scenario", "crash=7@40;seed-faults=0.002",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&out)
	lines := 0
	for sc.Scan() {
		lines++
		var r map[string]any
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines, err)
		}
		if got, _ := r["scenario"].(string); got != "crash=7@40;seed-faults=0.002" {
			t.Errorf("line %d scenario = %q", lines, got)
		}
	}
	if lines != 2 {
		t.Fatalf("emitted %d JSON lines, want 2", lines)
	}

	if err := run([]string{"-scenario", "crash=7@40"}, io.Discard); err == nil {
		t.Error("-scenario without -jobs did not error")
	}
	if err := run([]string{"-jobs", "graphs=torus:36", "-scenario", "crash=7"}, io.Discard); err == nil {
		t.Error("malformed -scenario did not error")
	}
}

// TestOneExperimentParallel runs the cheapest real experiment end-to-end
// through the CLI path with the parallel engine enabled.
func TestOneExperimentParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full experiment")
	}
	if err := run([]string{"-exp", "A3", "-seed", "7", "-workers", "4"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestJobsMalformedSpecs drives malformed -jobs specs through the CLI: each
// must come back as an error, never a panic and never a run. No case would
// build a large graph if it were accepted.
func TestJobsMalformedSpecs(t *testing.T) {
	for _, tc := range []struct{ name, spec string }{
		{"empty", ""},
		{"blank", "  "},
		{"only empty clauses", ";;"},
		{"empty key and value", "graphs=torus:16;="},
		{"empty graphs", "graphs="},
		{"empty protocols", "graphs=torus:16;protocols="},
		{"empty seeds", "graphs=torus:16;seeds="},
		{"empty scenario", "graphs=torus:16;scenario="},
		{"missing n", "graphs=torus"},
		{"missing n after colon", "graphs=torus:"},
		{"zero n", "graphs=torus:0"},
		{"negative n", "graphs=torus:-5"},
		{"non-numeric n", "graphs=torus:abc"},
		{"float n", "graphs=torus:1e3"},
		{"descending seeds", "graphs=torus:16;seeds=5-1"},
		{"seed range past maxJobs", "graphs=torus:16;seeds=1-2000000"},
		{"seed range across int64", "graphs=torus:16;seeds=0-9223372036854775807"},
		{"expansion past maxJobs", "graphs=torus:16,ladder:8;protocols=mst,sssp;seeds=1-300000"},
		{"unknown protocol", "graphs=torus:16;protocols=nosuch"},
		{"unknown family", "graphs=nosuch:16"},
		{"scenario not key=value", "graphs=torus:16;scenario=crash"},
		{"scenario missing round", "graphs=torus:16;scenario=crash=7"},
		{"scenario rate out of range", "graphs=torus:16;scenario=seed-faults=2"},
		{"unknown key", "graphs=torus:16;frobs=1"},
		{"clause not key=value", "graphs=torus:16;protocols"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("-jobs %q panicked: %v", tc.spec, r)
					}
				}()
				return run([]string{"-jobs", tc.spec}, &out)
			}()
			if err == nil {
				t.Fatalf("-jobs %q did not error", tc.spec)
			}
			if out.Len() != 0 {
				t.Errorf("-jobs %q ran before failing: %q", tc.spec, out.String())
			}
		})
	}
}
