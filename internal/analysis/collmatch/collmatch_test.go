package collmatch_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/collmatch"
)

func TestCollMatch(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "a"), collmatch.Analyzer)
}

// TestCollMatchDeterministic pins the report where a guarded helper
// performs several collectives (syncAll in the fixture): every run must
// name the same op on every reported line.
func TestCollMatchDeterministic(t *testing.T) {
	pkg, err := analysis.LoadDir(filepath.Join("testdata", "src", "a"), true)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make(map[int]map[string]bool)
	for i := 0; i < 20; i++ {
		diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{collmatch.Analyzer})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			if msgs[d.Pos.Line] == nil {
				msgs[d.Pos.Line] = make(map[string]bool)
			}
			msgs[d.Pos.Line][d.Message] = true
		}
	}
	for line, set := range msgs {
		if len(set) != 1 {
			t.Errorf("line %d: want one message over 20 runs, got %d: %v", line, len(set), set)
		}
	}
}
