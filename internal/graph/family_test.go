package graph

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"
)

// edgeDigest is an FNV-64a tag over a graph's node count and its edge list
// (U, V, W) in edge-index order.
func edgeDigest(g *Graph) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\n", g.N())
	g.ForEdges(func(_ int, e Edge) bool {
		fmt.Fprintf(h, "%d %d %d\n", e.U, e.V, e.W)
		return true
	})
	return fmt.Sprintf("%016x", h.Sum64())
}

// familyGolden pins the edge-list digests of the eight families the job
// mode served before the registry existed, at n = 1, 5, 100, 256, 1000, each
// at seeds 1 then 7. They were captured from those earlier builders, so any
// drift in a size rule, a generator or the weight draw shows here.
var familyGolden = map[string][]string{
	"grid":       {"f8808e1804330cdf", "f8808e1804330cdf", "f8808e1804330cdf", "f8808e1804330cdf", "f679efa5b78daba2", "f679efa5b78daba2", "88dc8050241edb14", "88dc8050241edb14", "1f4805e6820d3cc4", "1f4805e6820d3cc4"},
	"gridstar":   {"f2cf2915c7bab516", "f2cf2915c7bab516", "f2cf2915c7bab516", "f2cf2915c7bab516", "b83d50bd976256b6", "b83d50bd976256b6", "52013658bd22a1e3", "52013658bd22a1e3", "8c8d553c9e4d38ab", "8c8d553c9e4d38ab"},
	"ladder":     {"f8808e1804330cdf", "f8808e1804330cdf", "f8808e1804330cdf", "f8808e1804330cdf", "6ca4e70fb38bdd8c", "6ca4e70fb38bdd8c", "e53cf23522f8fe37", "e53cf23522f8fe37", "12f64c972be89b80", "12f64c972be89b80"},
	"powerlaw":   {"af627b01cec1abec", "a7ab9a9ed7d522a9", "af627b01cec1abec", "a7ab9a9ed7d522a9", "ece79ce26f8b1f17", "ac7a385060e561b1", "944a0e1b8975513f", "ecb37c952fc6620d", "7576e87863599623", "56f6602f715de1ef"},
	"prefattach": {"aa9b4f92b160df0c", "ce35165045963fa8", "aa9b4f92b160df0c", "ce35165045963fa8", "a23f245448daac8e", "c4e7d0d37038a073", "7248ccfbc97d1e4c", "b2315cd68a02ede8", "d3831fc5ac897744", "ce12c628ac13c3ba"},
	"random":     {"543507000bb6e5ad", "8a1f77b606732688", "543507000bb6e5ad", "8a1f77b606732688", "fba0ab5e44f3bb43", "9c4bd9325bb6ade8", "c20dbf255f8789c0", "715c6c6139e18cd0", "58c0753a504ea3a1", "7e2bed266a28a40f"},
	"star":       {"ec553cc3fc70ffcf", "ec553cc3fc70ffcf", "ed5c887a728c1432", "ed5c887a728c1432", "8b9d6158197f5001", "8b9d6158197f5001", "ed81a2f38e578daf", "ed81a2f38e578daf", "c03f64414e1af6e1", "c03f64414e1af6e1"},
	"torus":      {"6c703c9cb5334c56", "6c703c9cb5334c56", "6c703c9cb5334c56", "6c703c9cb5334c56", "0c3356dfe03349a2", "0c3356dfe03349a2", "edf6c8af5240ae8c", "edf6c8af5240ae8c", "4ded8a60e66eaa60", "4ded8a60e66eaa60"},
}

func TestFamilyGolden(t *testing.T) {
	for fam, want := range familyGolden {
		i := 0
		for _, n := range []int{1, 5, 100, 256, 1000} {
			for _, seed := range []int64{1, 7} {
				g, err := Family(fam, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				if got := edgeDigest(g); got != want[i] {
					t.Errorf("%s n=%d seed=%d: digest %s, want %s", fam, n, seed, got, want[i])
				}
				i++
			}
		}
	}
}

// TestFamilyTinySizes: every family clamps n = 1..8 to a valid connected
// instance, and two builds with the same (n, seed) are identical.
func TestFamilyTinySizes(t *testing.T) {
	for _, fam := range FamilyNames() {
		for n := 1; n <= 8; n++ {
			g, err := Family(fam, n, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Connected() {
				t.Errorf("%s n=%d: %d-node instance is disconnected", fam, n, g.N())
			}
			again, _ := Family(fam, n, 3)
			if edgeDigest(g) != edgeDigest(again) {
				t.Errorf("%s n=%d: two builds differ", fam, n)
			}
		}
	}
}

func TestFamilyErrors(t *testing.T) {
	_, err := Family("moebius", 10, 1)
	if err == nil || !strings.Contains(err.Error(), strings.Join(FamilyNames(), ", ")) {
		t.Errorf("unknown family: error %v does not list the families", err)
	}
	for _, n := range []int{0, -3} {
		if _, err := Family("path", n, 1); err == nil {
			t.Errorf("n=%d accepted", n)
		}
	}
	if !slices.IsSorted(FamilyNames()) {
		t.Errorf("FamilyNames() = %v, not sorted", FamilyNames())
	}
}
