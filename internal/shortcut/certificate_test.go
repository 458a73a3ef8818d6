package shortcut

import (
	"math/rand"
	"testing"

	"locshort/internal/graph"
	"locshort/internal/partition"
)

// lowerBoundSetup builds the Lemma 3.2 instance with its rows as parts.
func lowerBoundSetup(t *testing.T, dp, DP int) (*graph.Graph, *partition.Partition) {
	t.Helper()
	lb, err := graph.LowerBound(dp, DP)
	if err != nil {
		t.Fatalf("LowerBound error = %v", err)
	}
	p, err := partition.New(lb.G, lb.Rows)
	if err != nil {
		t.Fatalf("partition error = %v", err)
	}
	return lb.G, p
}

func TestExtractCertificateOnLowerBound(t *testing.T) {
	// The Lemma 3.2 instance with reduced constants (c = depth, b = 1): the
	// partial construction fails for every row, and a bipartite minor of
	// density > 1 must be extractable. (The paper's exact c = 8*delta*D
	// guarantee only fails at >10^6-node scales; see
	// TestBuildFixedDeltaFailsWhenTooSmall for the scale argument.)
	g, p := lowerBoundSetup(t, 6, 32)
	tr := mustTree(t, g, graph.ChooseRoot(g))
	depth := tr.MaxDepth()
	pr, err := BuildPartial(g, tr, p, depth, 1, nil)
	if err != nil {
		t.Fatalf("BuildPartial error = %v", err)
	}
	if pr.Shortcut.CoveredCount() == p.NumParts() {
		t.Fatal("partial construction unexpectedly covered everything")
	}
	rng := rand.New(rand.NewSource(11))
	m, ok := ExtractCertificate(g, tr, p, pr, 1.0, 400, rng)
	if !ok {
		t.Fatal("no certificate extracted")
	}
	if err := m.Validate(g); err != nil {
		t.Fatalf("certificate is not a valid minor: %v", err)
	}
	if m.Density() <= 1.0 {
		t.Errorf("certificate density = %v, want > 1", m.Density())
	}
}

func TestExtractCertificateViaBuildCertify(t *testing.T) {
	// Fixed delta' = 1 with reduced constants on the Lemma 3.2 instance:
	// Build fails with ErrDeltaTooSmall and the result carries a validated
	// certificate denser than the failed level.
	g, p := lowerBoundSetup(t, 6, 32)
	rng := rand.New(rand.NewSource(5))
	res, err := Build(g, p, Options{
		Delta:            1,
		CongestionFactor: 1,
		BlockFactor:      1,
		MaxIterations:    3,
		Certify:          true,
		CertAttempts:     400,
		Rng:              rng,
	})
	if err == nil {
		t.Fatal("Build succeeded, want ErrDeltaTooSmall")
	}
	if res == nil {
		t.Fatal("Build returned nil result with certificates expected")
	}
	if len(res.Certificates) == 0 {
		t.Fatal("no certificates extracted at the failed level")
	}
	for i, m := range res.Certificates {
		if err := m.Validate(g); err != nil {
			t.Errorf("certificate %d invalid: %v", i, err)
		}
		if m.Density() <= float64(res.FailedDeltas[i]) {
			t.Errorf("certificate %d density %v <= failed delta' %d",
				i, m.Density(), res.FailedDeltas[i])
		}
	}
}

func TestExtractCertificateNoCutEdges(t *testing.T) {
	g := graph.Path(6)
	p, err := partition.New(g, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	tr := mustTree(t, g, 0)
	pr, err := BuildPartial(g, tr, p, 100, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ExtractCertificate(g, tr, p, pr, 1, 10, rand.New(rand.NewSource(1))); ok {
		t.Error("certificate extracted with no overcongested edges")
	}
}

func TestCertificateDensityNeverExceedsTrueDelta(t *testing.T) {
	// Sanity: on planar grids every certificate (if any) must have density
	// < 3; extraction at delta' >= 3 must therefore always fail.
	g := graph.Grid(9, 9)
	p, err := partition.Singletons(g)
	if err != nil {
		t.Fatal(err)
	}
	tr := mustTree(t, g, 0)
	pr, err := BuildPartial(g, tr, p, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	if m, ok := ExtractCertificate(g, tr, p, pr, 3.0, 100, rng); ok {
		t.Errorf("extracted a certificate of density %v >= 3 from a planar graph", m.Density())
	}
	// At a low threshold extraction may succeed; if it does, it must be valid.
	if m, ok := ExtractCertificate(g, tr, p, pr, 1.0, 200, rng); ok {
		if err := m.Validate(g); err != nil {
			t.Errorf("certificate invalid: %v", err)
		}
		if m.Density() <= 1.0 {
			t.Errorf("certificate density %v <= threshold 1.0", m.Density())
		}
	}
}

// Property: on arbitrary random inputs — any graph, partition, thresholds —
// certificate extraction never fabricates an invalid witness: whatever it
// returns is a genuine minor of G with density above the threshold.
func TestExtractCertificateSoundnessQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 12 + rng.Intn(50)
		maxM := n * (n - 1) / 2
		m := n - 1 + rng.Intn(3*n)
		if m > maxM {
			m = maxM
		}
		g := graph.RandomConnected(n, m, rng)
		k := 2 + rng.Intn(n/2)
		p, err := partition.BFSBlobs(g, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		tr := mustTree(t, g, rng.Intn(n))
		c := 1 + rng.Intn(5)
		pr, err := BuildPartial(g, tr, p, c, rng.Intn(3), nil)
		if err != nil {
			t.Fatal(err)
		}
		thr := 0.5 + rng.Float64()
		cert, ok := ExtractCertificate(g, tr, p, pr, thr, 50, rng)
		if !ok {
			continue
		}
		if err := cert.Validate(g); err != nil {
			t.Fatalf("trial %d: invalid certificate: %v", trial, err)
		}
		if cert.Density() <= thr {
			t.Fatalf("trial %d: density %v <= threshold %v", trial, cert.Density(), thr)
		}
	}
}
