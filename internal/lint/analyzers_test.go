package lint_test

import (
	"testing"

	"github.com/bgpstream-go/bgpstream/internal/lint"
)

func TestEOFCompare(t *testing.T) {
	runGolden(t, "testdata", "eofcmp", lint.EOFCompare)
}

func TestHotPathAlloc(t *testing.T) {
	runGolden(t, "testdata", "hotalloc", lint.HotPathAlloc)
}

func TestObsvLabels(t *testing.T) {
	runGolden(t, "testdata", "obsvuse", lint.ObsvLabels)
}

func TestGoLeak(t *testing.T) {
	runGolden(t, "testdata", "leak", lint.GoLeak)
}

func TestLockDiscipline(t *testing.T) {
	runGolden(t, "testdata", "lockdisc", lint.LockDiscipline)
}

func TestByName(t *testing.T) {
	for _, a := range lint.All {
		if got := lint.ByName(a.Name); got != a {
			t.Errorf("ByName(%q) = %v, want %v", a.Name, got, a)
		}
	}
	if got := lint.ByName("nope"); got != nil {
		t.Errorf("ByName(nope) = %v, want nil", got)
	}
}
