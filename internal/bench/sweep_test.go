package bench

import (
	"strconv"
	"strings"
	"testing"
)

// col returns the index of a named sweep header, fatally if absent.
func col(t *testing.T, headers []string, name string) int {
	t.Helper()
	for i, h := range headers {
		if h == name {
			return i
		}
	}
	t.Fatalf("headers %v lack a %q column", headers, name)
	return -1
}

// TestScaleSweepSmallest runs the sweep capped at its smallest instance
// (n=10^4 per family) so the measurement path stays exercised by the fast
// suite; the full n=10^6 march is interactive (cmd/pabench -sweep).
func TestScaleSweepSmallest(t *testing.T) {
	tab, err := ScaleSweep(7, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(sweepOrder) {
		t.Fatalf("got %d rows, want one per family (%d)", len(tab.Rows), len(sweepOrder))
	}
	rows := map[string][]string{}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Headers) {
			t.Fatalf("row width %d != header width %d: %v", len(row), len(tab.Headers), row)
		}
		rows[row[0]] = row
	}
	msgsCol := col(t, tab.Headers, "msgs")
	awakeCol := col(t, tab.Headers, "awake%")
	balCol := col(t, tab.Headers, "bal@4")

	torus := rows["torus"]
	if torus == nil || torus[1] != "10000" {
		t.Fatalf("missing or wrong torus row: %v", torus)
	}
	// The storm is exactly stormRounds broadcasts over 2m half-edges:
	// a 100x100 torus has m = 2n = 20000 edges, so 10 * 40000 messages.
	if torus[msgsCol] != "400000" {
		t.Fatalf("torus storm messages %s, want 400000", torus[msgsCol])
	}
	// Uniform degree: the edge-balanced split is near-perfect.
	if torus[balCol] != "1.00x" {
		t.Fatalf("torus balance column %s, want 1.00x", torus[balCol])
	}
	// The storm steps every node in every broadcast round; only the final
	// quiescence-detection rounds idle, so mean awake% sits in (80, 100].
	awake, err := strconv.ParseFloat(torus[awakeCol], 64)
	if err != nil {
		t.Fatal(err)
	}
	if awake <= 80 || awake > 100 {
		t.Fatalf("torus storm awake%% = %v, want (80, 100]", awake)
	}

	star := rows["star"]
	if star == nil {
		t.Fatal("missing star row")
	}
	// The hub is an indivisible half of all edge mass: the edge-balanced
	// column sits at the single-node floor (flagged '!').
	if !strings.HasSuffix(star[balCol], "!") {
		t.Fatalf("star bal %s lacks the indivisible-floor flag", star[balCol])
	}

	if rows["powerlaw"] == nil {
		t.Fatal("missing powerlaw row")
	}
	if !strings.Contains(tab.Format(), "SWEEP") {
		t.Fatal("formatted table lacks the SWEEP id")
	}
}

// TestScaleSweepBelowMinimumErrors pins the empty-sweep guard.
func TestScaleSweepBelowMinimumErrors(t *testing.T) {
	if _, err := ScaleSweep(7, 9_999); err == nil {
		t.Fatal("ScaleSweep below the smallest instance did not error")
	}
}
