package main

import (
	"io"
	"regexp"
	"strings"
	"testing"

	"shortcutpa/internal/graph"
)

func TestMSTOnSmallGrid(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-family", "grid", "-n", "49", "-seed", "7"}, &out); err != nil {
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
	if err := run([]string{"-family", "path", "-n", "60", "-mode", "det", "-workers", "4"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownFamilyFails(t *testing.T) {
	err := run([]string{"-family", "hypercube"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), strings.Join(graph.FamilyNames(), ", ")) {
		t.Fatalf("unknown family: error %v does not list the families", err)
	}
}

// TestBadInputFails: malformed flags are errors (exit 1 from main), never
// panics and never a silent fallback.
func TestBadInputFails(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"},
		{"-n", "-1"},
		{"-family", "torus", "-n", "0"},
		{"-mode", "xx"},
		{"-mode", ""},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%q) did not error", args)
		}
	}
}
