package bench

import (
	"os"
	"strings"
	"testing"
)

// TestExperimentsVerbatim regenerates every table at full size with seed
// 1, as `go run ./cmd/shortcutbench -seed 1` does, and holds each to its
// block in EXPERIMENTS.md byte for byte: the block starts at the table's
// "### <ID> — <title>" heading line, and a blank line, the next heading or
// the end of the file follows it. The command's "(… completed in …)"
// lines are not part of a table.
func TestExperimentsVerbatim(t *testing.T) {
	if testing.Short() {
		t.Skip("the full-size experiments take a few seconds; skipped with -short")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	md := string(doc)
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(Config{Seed: 1})
			if err != nil {
				t.Fatalf("%s error = %v", e.ID, err)
			}
			want := tab.String()
			heading, _, _ := strings.Cut(want, "\n")
			start := strings.Index(md, "\n"+heading+"\n")
			if start < 0 {
				t.Fatalf("EXPERIMENTS.md has no %q heading; regenerated:\n%s", heading, want)
			}
			got := md[start+1:]
			if !strings.HasPrefix(got, want) || len(got) > len(want) && got[len(want)] != '\n' {
				end := strings.Index(got[1:], "\n### ")
				if end < 0 {
					end = len(got) - 1
				}
				t.Errorf("%s differs from EXPERIMENTS.md.\nregenerated:\n%s\nEXPERIMENTS.md:\n%s", e.ID, want, got[:end+1])
			}
		})
	}
}
