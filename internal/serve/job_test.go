package serve

import (
	"errors"
	"strings"
	"testing"

	"bordercontrol/internal/harness"
)

// TestRunReportVerdict: the shared run's verdict. A run whose results
// verify ends done; one whose results fail verification keeps its report,
// names the failure on its results line, and fails the job, as `bctool
// run` exits non-zero for it.
func TestRunReportVerdict(t *testing.T) {
	wrong := errors.New("word 3 differs")
	for _, c := range []struct {
		verifyErr error
		line      string
	}{
		{nil, "results       verified correct\n"},
		{wrong, "results       INCORRECT: word 3 differs\n"},
	} {
		res := harness.RunResult{Workload: "bfs", Mode: harness.BCBCC, Class: harness.HighlyThreaded, VerifyErr: c.verifyErr}
		art, err := runReport(res)
		if art != res.Render()+c.line {
			t.Errorf("VerifyErr %v: artifact\n%s\nwant the report, then %q", c.verifyErr, art, c.line)
		}
		switch {
		case c.verifyErr == nil && err != nil:
			t.Errorf("verified run: err = %v, want nil", err)
		case c.verifyErr != nil && (!errors.Is(err, c.verifyErr) || !strings.Contains(err.Error(), "results INCORRECT")):
			t.Errorf("wrong results: err = %v, want results INCORRECT wrapping %v", err, c.verifyErr)
		}
	}
}
