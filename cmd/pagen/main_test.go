package main

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"shortcutpa/internal/graph"
)

func TestGenerateEveryFamily(t *testing.T) {
	for _, f := range graph.FamilyNames() {
		if err := run([]string{"-family", f, "-n", "50", "-seed", "3"}, io.Discard); err != nil {
			t.Errorf("family %s: %v", f, err)
		}
	}
}

func TestEdgesFlag(t *testing.T) {
	if err := run([]string{"-family", "path", "-n", "60", "-edges"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownFamilyFails(t *testing.T) {
	err := run([]string{"-family", "mobius"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), strings.Join(graph.FamilyNames(), ", ")) {
		t.Fatalf("unknown family: error %v does not list the families", err)
	}
}

// TestBadScaleFails: a size -n below 1 is an error for every family (exit 1
// from main), never a panic inside a generator or the diameter scan.
func TestBadScaleFails(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"},
		{"-n", "-2"},
		{"-family", "cycle", "-n", "0"},
		{"-family", "powerlaw", "-n", "-1"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%q) did not error", args)
		}
	}
}

// TestLoadRoundTrip: -edges output of a generated graph feeds back through
// -load with the identical shape, and a second -load of the re-emitted
// normalized list is a fixed point — the full pagen -> LoadEdgeList cycle.
func TestLoadRoundTrip(t *testing.T) {
	var gen bytes.Buffer
	if err := run([]string{"-family", "torus", "-n", "36", "-edges"}, &gen); err != nil {
		t.Fatal(err)
	}
	header, edges, ok := strings.Cut(gen.String(), "\n")
	if !ok {
		t.Fatalf("no edge lines after header %q", header)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "torus.txt")
	if err := os.WriteFile(file, []byte(edges), 0o644); err != nil {
		t.Fatal(err)
	}

	var loaded bytes.Buffer
	if err := run([]string{"-load", file, "-edges"}, &loaded); err != nil {
		t.Fatal(err)
	}
	loadHeader, loadEdges, _ := strings.Cut(loaded.String(), "\n")
	if want := "family=load n=36 m=72 diameter=6"; loadHeader != want {
		t.Fatalf("-load header = %q, want %q", loadHeader, want)
	}
	// The generator's IDs are already dense and its list normalized, so the
	// re-emitted list is the same edge set — modulo ordering only:
	// LoadEdgeList sorts pairs (and canonicalizes each to min-max endpoint
	// order) while the generator emits insertion order.
	if !slices.Equal(canonEdges(t, edges), canonEdges(t, loadEdges)) {
		t.Error("-load -edges did not reproduce the generated edge set")
	}

	// -load of its own output is a fixed point.
	again := filepath.Join(dir, "again.txt")
	if err := os.WriteFile(again, []byte(loadEdges), 0o644); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := run([]string{"-load", again, "-edges"}, &second); err != nil {
		t.Fatal(err)
	}
	if second.String() != loaded.String() {
		t.Error("-load is not a fixed point on its own output")
	}
}

// canonEdges parses "u v w" lines into a sorted list of canonical
// (min, max, w) strings, the order-independent projection of an edge list.
func canonEdges(t *testing.T, s string) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("edge line %q is not 'u v w'", line)
		}
		u, v := f[0], f[1]
		if len(u) > len(v) || (len(u) == len(v) && u > v) {
			u, v = v, u
		}
		out = append(out, u+" "+v+" "+f[2])
	}
	sort.Strings(out)
	return out
}

// TestLoadDisconnectedAndErrors: a disconnected load reports diameter=-1; a
// malformed file and a missing file are CLI errors.
func TestLoadDisconnectedAndErrors(t *testing.T) {
	dir := t.TempDir()
	disc := filepath.Join(dir, "disc.txt")
	if err := os.WriteFile(disc, []byte("1 2\n3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-load", disc}, &out); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&out)
	sc.Scan()
	if want := "family=load n=4 m=2 diameter=-1"; sc.Text() != want {
		t.Errorf("disconnected header = %q, want %q", sc.Text(), want)
	}

	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("1 2 notaweight\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-load", bad}, io.Discard); err == nil {
		t.Error("malformed edge list did not error")
	}
	if err := run([]string{"-load", filepath.Join(dir, "nope.txt")}, io.Discard); err == nil {
		t.Error("missing file did not error")
	}
}
