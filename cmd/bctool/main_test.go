package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"bordercontrol/internal/serve"
)

// show renders a request as the JSON the daemon decodes.
func show(r serve.Request) string {
	blob, _ := json.Marshal(r)
	return string(blob)
}

// TestLocalAndSubmittedAgree: `bctool X ARGS` and `bctool submit X ARGS`
// parse one declaration of X's job flags, so they resolve to the same run
// or both refuse. For each case the submitted request goes through the
// JSON encoding Client.Submit uses and the decoding the daemon uses; it
// must equal the local request, which the local command runs through the
// same plan and run (serve.Run). A refusal must name the flag, or the
// value, it refuses, and only the sweep caps may part the two: they bind
// the daemon's admission alone.
func TestLocalAndSubmittedAgree(t *testing.T) {
	for _, c := range []struct {
		args []string
		// refused is what both front ends' refusals must name; "" when both
		// run the job.
		refused string
		// admission is what the daemon's admission refusal must name when
		// only it refuses.
		admission string
		// want checks the run the job resolves to.
		want func(serve.Request) bool
	}{
		{args: []string{"run"}, want: func(r serve.Request) bool {
			return *r.Run == serve.RunSpec{Workload: "bfs", Mode: "bc-bcc", Class: "high", Scale: 1}
		}},
		{args: []string{"sweep"}, want: func(r serve.Request) bool {
			return reflect.DeepEqual(*r.Sweep, serve.SweepSpec{Seeds: 1, Classes: "both"})
		}},
		{args: []string{"adversary"}, want: func(r serve.Request) bool {
			return reflect.DeepEqual(*r.Adversary, serve.AdversarySpec{Seed: 1, Campaigns: 4})
		}},
		{args: []string{"fleet"}, want: func(r serve.Request) bool {
			return *r.Fleet == serve.FleetSpec{Tenants: 16, Mode: "bc-bcc", Class: "moderate", Workload: "pathfinder",
				ChurnPs: 20_000_000, SpreadPs: 50_000_000, LookaheadPs: 1_000_000, Seed: 1, Scale: 1}
		}},
		{args: []string{"fleet", "-tenants", "2", "-churn-ps", "0"}, want: func(r serve.Request) bool {
			return r.Fleet.Tenants == 2 && r.Fleet.ChurnPs == -1 && r.Fleet.SpreadPs == 50_000_000
		}},
		{args: []string{"fleet", "-tenants", "2", "-spread-ps", "0"}, want: func(r serve.Request) bool {
			return r.Fleet.Tenants == 2 && r.Fleet.SpreadPs == -1 && r.Fleet.ChurnPs == 20_000_000
		}},
		{args: []string{"fleet", "-tenants", "2", "-churn-ps", "0", "-spread-ps", "0"}, want: func(r serve.Request) bool {
			return r.Fleet.ChurnPs == -1 && r.Fleet.SpreadPs == -1
		}},
		{args: []string{"fleet", "-tenants", "2", "-seed", "0"}, refused: "-seed"},
		{args: []string{"fleet", "-tenants", "0"}, refused: "-tenants"},
		{args: []string{"fleet", "-lookahead-ps", "0"}, refused: "-lookahead-ps"},
		{args: []string{"adversary", "-campaigns", "0"}, refused: "-campaigns"},
		{args: []string{"adversary", "-campaigns", "1"}, want: func(r serve.Request) bool {
			return r.Adversary.Campaigns == 1 && r.Adversary.Seed == 1
		}},
		{args: []string{"adversary", "-seed", "0"}, refused: "-seed"},
		{args: []string{"sweep", "-seeds", "0"}, refused: "-seeds"},
		{args: []string{"sweep", "-traffic", ""}, refused: "-traffic"},
		{args: []string{"sweep", "-borders", "bogus"}, refused: `unknown border design "bogus"`},
		{args: []string{"sweep", "-seeds", "100", "-modes", "bc-bcc", "-borders", "flat", "-classes", "moderate"},
			admission: "limit", want: func(r serve.Request) bool { return r.Sweep.Seeds == 100 }},
	} {
		name := strings.Join(c.args, " ")
		j, localErr := parseJob(c.args[0], c.args[1:])
		local, env := j.req, j.env
		sent, submitErr := submitRequest(c.args[0], c.args[1:])
		var got serve.Request
		if submitErr == nil {
			blob, err := json.Marshal(sent)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(bytes.NewReader(blob)).Decode(&got); err != nil {
				t.Fatal(err)
			}
			submitErr = got.Validate()
		}
		if localErr == nil {
			// A cancelled context: a plan that refuses does so before
			// anything runs, and one that accepts stops at once.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			env.Progress = nil
			if _, _, err := serve.Run(ctx, local, env); !errors.Is(err, context.Canceled) {
				localErr = err
			}
		}
		switch {
		case c.refused != "":
			if localErr == nil || !strings.Contains(localErr.Error(), c.refused) {
				t.Errorf("bctool %s: err = %v, want a refusal naming %s", name, localErr, c.refused)
			}
			if submitErr == nil || !strings.Contains(submitErr.Error(), c.refused) {
				t.Errorf("bctool submit %s: err = %v, want a refusal naming %s", name, submitErr, c.refused)
			}
			continue
		case localErr != nil:
			t.Errorf("bctool %s: %v", name, localErr)
			continue
		case c.admission != "":
			if submitErr == nil || !strings.Contains(submitErr.Error(), c.admission) {
				t.Errorf("bctool submit %s: err = %v, want the daemon's admission to refuse it naming %q", name, submitErr, c.admission)
			}
		case submitErr != nil:
			t.Errorf("bctool submit %s: %v", name, submitErr)
			continue
		}
		if !reflect.DeepEqual(local, got) {
			t.Errorf("%s: the daemon decodes\n%s\nbut the local command runs\n%s", name, show(got), show(local))
		}
		if !c.want(local) {
			t.Errorf("%s resolves to the wrong run: %s", name, show(local))
		}
	}
}
