package main

import (
	"io"
	"regexp"
	"strings"
	"testing"
)

func TestMSTOnSmallGrid(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-family", "grid", "-scale", "1", "-seed", "7"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "match: true") {
		t.Errorf("MST weight does not match Kruskal:\n%s", out.String())
	}
	// The activity line: node steps run, and their share of n·rounds.
	if !regexp.MustCompile(`(?m)^stepped: [1-9][0-9]* \(awake [0-9]+\.[0-9]{2}%\)$`).MatchString(out.String()) {
		t.Errorf("no stepped/awake line in the output:\n%s", out.String())
	}
}

func TestMSTDeterministicParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("deterministic construction on a full instance")
	}
	if err := run([]string{"-family", "path", "-scale", "1", "-mode", "det", "-workers", "4"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownFamilyFails(t *testing.T) {
	if err := run([]string{"-family", "hypercube"}, io.Discard); err == nil {
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
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%q) did not error", args)
		}
	}
}
