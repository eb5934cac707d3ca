package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRequestValidate decodes arbitrary submission bodies the way POST
// /v1/jobs does and validates them. Validation must never panic, whatever
// the body, and a sweep it accepts must sit inside the sweep caps — the
// bound that keeps a submission from generating unbounded traffic before
// the queue bound applies, or from starting unbounded worker processes.
func FuzzRequestValidate(f *testing.F) {
	for _, body := range []string{
		`{"type":"run","run":{"workload":"bfs","mode":"bc-bcc","class":"high"}}`,
		`{"type":"run","run":{"workload":"bfs","mode":"bc-bcc","class":"bogus"}}`,
		`{"type":"sweep","sweep":{"traffic":["bursty"],"seeds":1,"modes":["bc-bcc"],"borders":["flat"],"classes":"moderate","gen_segments":2,"gen_wavefronts":2,"gen_ops":64}}`,
		`{"type":"sweep","sweep":{"seeds":1000000}}`,
		`{"type":"sweep","sweep":{"traffic":["mix","mix"],"gen_ops":70000}}`,
		`{"type":"adversary","adversary":{"campaigns":2,"border":"range"}}`,
		`{"type":"fleet","fleet":{"tenants":4,"class":"mod","churn_ps":-1}}`,
		`{"type":"sweep","run":{},"sweep":{}}`,
		`not json`,
		`{"type":"sweep","sweep":{"seeds":256,"gen_segments":1,"gen_wavefronts":1,"gen_ops":1,"workers":100000}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
			return
		}
		if req.Validate() != nil || req.Type != "sweep" {
			return
		}
		s := req.Sweep
		if s.Seeds > MaxSweepSeeds || s.GenSegments > MaxSweepGenSize ||
			s.GenWavefronts > MaxSweepGenSize || s.GenOps > MaxSweepOps ||
			s.Workers > MaxSweepWorkers {
			t.Fatalf("accepted a sweep past the caps: %+v", *s)
		}
	})
}
