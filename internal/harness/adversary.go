package harness

import (
	"context"
	"fmt"
	"strings"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/adversary"
	"bordercontrol/internal/exp"
)

// AdversaryReport runs seeded sandbox-escape campaigns: every requested
// attack against a freshly assembled Border Control system, one cell per
// (campaign, attack) on the experiment-execution layer, so campaigns run in
// parallel and the report is byte-identical to a serial sweep. Campaign i
// uses seed+i and rotates the protection configuration — the BCC on or off
// (campaign parity) and the selective vs full downgrade flush (every other
// pair) — so a default four-campaign run covers all four protocol variants.
func AdversaryReport(ctx context.Context, ex Exec, p Params, seed int64, campaigns int, attacks []string) (adversary.Report, error) {
	if campaigns <= 0 {
		campaigns = 1
	}
	if len(attacks) == 0 {
		attacks = adversary.AttackNames()
	}
	for _, name := range attacks {
		if _, ok := adversary.Lookup(name); !ok {
			return adversary.Report{}, fmt.Errorf("harness: unknown attack %q (have %s)",
				name, strings.Join(adversary.AttackNames(), ", "))
		}
	}
	type cell struct {
		campaign int
		attack   string
	}
	rep := adversary.Report{Seed: seed, Campaigns: campaigns}
	var cells []cell
	for i := 0; i < campaigns; i++ {
		mode, selective := campaignConfig(i, p)
		label := mode.String() + ", full flush"
		if selective {
			label = mode.String() + ", selective flush"
		}
		rep.Configs = append(rep.Configs, label)
		for _, a := range attacks {
			cells = append(cells, cell{campaign: i, attack: a})
		}
	}
	results, err := exp.Map(ctx, ex.runner(), cells,
		func(_ int, c cell) string { return fmt.Sprintf("adversary/c%d/%s", c.campaign, c.attack) },
		func(_ context.Context, c cell) (adversary.AttackResult, error) {
			env, selective, err := newAdversaryEnv(c.campaign, p, ex.Shards)
			if err != nil {
				return adversary.AttackResult{}, fmt.Errorf("harness: adversary/c%d/%s: %w", c.campaign, c.attack, err)
			}
			adversary.Attach(env, selective)
			return adversary.Run(env, c.attack, seed+int64(c.campaign))
		})
	if err != nil {
		return rep, err
	}
	rep.Results = results
	return rep, nil
}

// campaignConfig maps a campaign index to its protection-protocol variant.
func campaignConfig(i int, p Params) (Mode, bool) {
	mode := BCBCC
	if i%2 == 1 {
		mode = BCNoBCC
	}
	selective := p.SelectiveFlush
	if i%4 >= 2 {
		selective = !selective
	}
	return mode, selective
}

// newAdversaryEnv assembles a fresh guarded system for campaign i and
// exposes it as an adversary environment. shards > 0 assembles the system
// on a shard of the sharded engine (see RunOptions.Shards): the attack
// drives the same engine either way, so reports are byte-identical.
func newAdversaryEnv(i int, p Params, shards int) (*adversary.Env, bool, error) {
	mode, selective := campaignConfig(i, p)
	p.SelectiveFlush = selective
	m, err := newMachine(mode, HighlyThreaded, p, shards)
	if err != nil {
		return nil, false, err
	}
	sys := m.System
	hier, ok := sys.Hier.(*accel.Sandboxed)
	if !ok {
		return nil, false, fmt.Errorf("adversary campaigns need a sandboxed hierarchy, got %T", sys.Hier)
	}
	return &adversary.Env{
		Eng:   sys.Eng,
		OS:    sys.OS,
		ATS:   sys.ATS,
		BC:    sys.BC,
		Hier:  hier,
		Port:  sys.Port,
		Dir:   sys.Dir,
		DRAM:  sys.DRAM,
		Clock: sys.GPUClock,
		Name:  sys.Name,
	}, selective, nil
}
