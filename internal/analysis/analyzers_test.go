package analysis_test

import (
	"testing"

	"locshort/internal/analysis"
)

// Each fixture package plants every construct its analyzer forbids plus
// the escapes and allowed forms it must tolerate; runFixture fails in
// both directions, so these tests prove each analyzer fires and that its
// audit comments suppress. Scoped analyzers get the import path of a
// package inside their scope.

func TestDeterminism(t *testing.T) {
	runFixture(t, analysis.Determinism, "testdata/determinism", "locshort/internal/graph")
}

func TestHotpath(t *testing.T) {
	runFixture(t, analysis.Hotpath, "testdata/hotpath", "locshort/internal/shortcut")
}

func TestAtomics(t *testing.T) {
	runFixture(t, analysis.Atomics, "testdata/atomics", "locshort/internal/service")
}

func TestCheckedErr(t *testing.T) {
	runFixture(t, analysis.CheckedErr, "testdata/checkederr", "locshort/internal/store")
}

func TestObsNil(t *testing.T) {
	runFixture(t, analysis.ObsNil, "testdata/obsnil", "locshort/internal/obs")
}

// TestScopedAnalyzersStayQuietOutsideScope reloads the violation-dense
// fixtures under import paths outside each analyzer's scope and asserts
// silence: scoping is what keeps the determinism rules from firing on
// the service layer, where wall clocks and map ranges are legitimate.
func TestScopedAnalyzersStayQuietOutsideScope(t *testing.T) {
	cases := []struct {
		a   *analysis.Analyzer
		dir string
		as  string
	}{
		{analysis.Determinism, "testdata/determinism", "locshort/internal/service"},
		{analysis.CheckedErr, "testdata/checkederr", "locshort/internal/graph"},
		{analysis.ObsNil, "testdata/obsnil", "locshort/internal/graph"},
	}
	for _, tc := range cases {
		pkg, err := analysis.LoadDir(tc.dir, tc.as)
		if err != nil {
			t.Fatalf("loading %s as %s: %v", tc.dir, tc.as, err)
		}
		diags, err := analysis.RunAnalyzer(tc.a, pkg)
		if err != nil {
			t.Fatalf("running %s on %s: %v", tc.a.Name, tc.dir, err)
		}
		for _, d := range diags {
			t.Errorf("%s on %s loaded as %s: unexpected diagnostic at %s: %s",
				tc.a.Name, tc.dir, tc.as, pkg.Fset.Position(d.Pos), d.Message)
		}
	}
}
