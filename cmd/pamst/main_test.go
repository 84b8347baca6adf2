package main

import "testing"

func TestMSTOnSmallGrid(t *testing.T) {
	if err := run([]string{"-family", "grid", "-scale", "1", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
}

func TestMSTDeterministicParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("deterministic construction on a full instance")
	}
	if err := run([]string{"-family", "path", "-scale", "1", "-mode", "det", "-workers", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownFamilyFails(t *testing.T) {
	if err := run([]string{"-family", "hypercube"}); err == nil {
		t.Fatal("unknown family did not error")
	}
}

// TestBadInputFails: malformed flags are errors (exit 1 from main), never
// panics and never a silent fallback.
func TestBadInputFails(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "0"},
		{"-scale", "-1"},
		{"-family", "torus", "-scale", "0"},
		{"-mode", "xx"},
		{"-mode", ""},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) did not error", args)
		}
	}
}
