package harness

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"bordercontrol/internal/tracerec"
	"bordercontrol/internal/traffic"
)

// TestSweepDeterminism: a replay sweep grid renders byte-identically
// whatever the host parallelism (jobs) and engine sharding — cells are
// independent deterministic simulations collected in submission order. It
// also pins the adversarial-probe outcomes the grid exists to show: under
// ATS-only every fabricated crossing is granted; under Border Control with
// the BCC every one is denied.
func TestSweepDeterminism(t *testing.T) {
	traces := map[string]*tracerec.Trace{}
	for _, shape := range []string{traffic.Bursty, traffic.Mix} {
		tr, err := traffic.Generate(traffic.Config{Shape: shape, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		traces[shape] = tr
	}
	names := []string{traffic.Bursty, traffic.Mix}
	modes := []Mode{ATSOnly, BCBCC}
	borders := []string{"flat", "range"}
	classes := []GPUClass{ModeratelyThreaded}

	run := func(jobs, shards int) string {
		cells := RecordedCells(traces, names, modes, borders, classes, DefaultParams(), shards)
		rows, err := RunSweepExec(context.Background(), Exec{Jobs: jobs}, cells)
		if err != nil {
			t.Fatalf("jobs=%d shards=%d: %v", jobs, shards, err)
		}
		probed := false
		for _, r := range rows {
			switch {
			case strings.HasPrefix(r.Label, "mix/ats-only/"):
				probed = true
				if r.Granted == 0 || r.Denied != 0 {
					t.Errorf("%s: want all probes granted, got %d granted %d denied",
						r.Label, r.Granted, r.Denied)
				}
			case strings.HasPrefix(r.Label, "mix/bc-bcc/"):
				probed = true
				if r.Denied == 0 || r.Granted != 0 {
					t.Errorf("%s: want all probes denied, got %d granted %d denied",
						r.Label, r.Granted, r.Denied)
				}
			}
		}
		if !probed {
			t.Fatal("grid carried no adversarial cells")
		}
		return RenderSweep(rows) + SweepCSV(rows)
	}

	serial := run(1, 0)
	parallel := run(4, 4)
	if serial != parallel {
		t.Errorf("sweep output depends on jobs/shards:\n--- jobs=1 shards=0\n%s--- jobs=4 shards=4\n%s",
			serial, parallel)
	}
}

// TestSweepDuplicateLabel: SweepCell.Label is documented "must be unique
// per grid" — labels are the merge key of the CSV and of the worker
// protocol, so RunSweepExec must refuse a duplicate with a typed error instead
// of silently corrupting output.
func TestSweepDuplicateLabel(t *testing.T) {
	tr, err := traffic.Generate(traffic.Config{Shape: traffic.Bursty, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cells := []SweepCell{
		{Label: "a", Trace: tr, Mode: BCBCC, Class: ModeratelyThreaded, P: DefaultParams()},
		{Label: "b", Trace: tr, Mode: BCBCC, Class: ModeratelyThreaded, P: DefaultParams()},
		{Label: "a", Trace: tr, Mode: BCNoBCC, Class: ModeratelyThreaded, P: DefaultParams()},
	}
	_, err = RunSweepExec(context.Background(), Exec{Jobs: 1}, cells)
	var dup *DuplicateLabelError
	if !errors.As(err, &dup) {
		t.Fatalf("RunSweepExec on duplicate labels: err = %v, want *DuplicateLabelError", err)
	}
	if dup.Label != "a" || dup.First != 0 || dup.Second != 2 {
		t.Fatalf("DuplicateLabelError = %+v, want {a 0 2}", dup)
	}

	// A nil trace is refused before anything runs, too.
	if _, err := RunSweepExec(context.Background(), Exec{Jobs: 1}, []SweepCell{{Label: "x"}}); err == nil {
		t.Fatal("RunSweepExec on nil trace: want error")
	}
}

// TestModeClassSlugs: the slug codecs are the wire vocabulary of sweep
// labels and the serve/worker protocol — they must round-trip every mode
// and class, and accept the historical flag aliases.
func TestModeClassSlugs(t *testing.T) {
	for _, m := range []Mode{ATSOnly, FullIOMMU, CAPILike, BCNoBCC, BCBCC} {
		got, err := ParseModeSlug(ModeSlug(m))
		if err != nil || got != m {
			t.Errorf("mode %v: round-trip via %q gave (%v, %v)", m, ModeSlug(m), got, err)
		}
	}
	if m, err := ParseModeSlug("capi"); err != nil || m != CAPILike {
		t.Errorf(`ParseModeSlug("capi") = (%v, %v), want CAPILike`, m, err)
	}
	if _, err := ParseModeSlug("bogus"); err == nil {
		t.Error(`ParseModeSlug("bogus"): want error`)
	}
	for _, c := range []GPUClass{HighlyThreaded, ModeratelyThreaded} {
		got, err := ParseClassSlug(ClassSlug(c))
		if err != nil || got != c {
			t.Errorf("class %v: round-trip via %q gave (%v, %v)", c, ClassSlug(c), got, err)
		}
	}
	if c, err := ParseClassSlug("moderate"); err != nil || c != ModeratelyThreaded {
		t.Errorf(`ParseClassSlug("moderate") = (%v, %v), want ModeratelyThreaded`, c, err)
	}
	if _, err := ParseClassSlug("warp"); err == nil {
		t.Error(`ParseClassSlug("warp"): want error`)
	}
}

// TestParseClasses: the class parsers behind every -class/-classes flag
// and the serve specs. A mistyped class is an error everywhere, never a
// silent fallback to some GPU.
func TestParseClasses(t *testing.T) {
	both := []GPUClass{HighlyThreaded, ModeratelyThreaded}
	for _, c := range []struct {
		in      string
		class   GPUClass // ParseClassSlug; ignored when slugErr
		slugErr bool
		list    []GPUClass // ParseClassList; nil when it must fail
	}{
		{in: "high", class: HighlyThreaded, list: []GPUClass{HighlyThreaded}},
		{in: "highly", class: HighlyThreaded, list: []GPUClass{HighlyThreaded}},
		{in: "mod", class: ModeratelyThreaded, list: []GPUClass{ModeratelyThreaded}},
		{in: "moderate", class: ModeratelyThreaded, list: []GPUClass{ModeratelyThreaded}},
		{in: "both", slugErr: true, list: both},
		{in: "", slugErr: true, list: both},
		{in: "bogus", slugErr: true},
		{in: "moderately", slugErr: true},
		{in: "High", slugErr: true},
		{in: "high,mod", slugErr: true},
	} {
		got, err := ParseClassSlug(c.in)
		if c.slugErr != (err != nil) || (!c.slugErr && got != c.class) {
			t.Errorf("ParseClassSlug(%q) = (%v, %v), want class %v, error %v", c.in, got, err, c.class, c.slugErr)
		}
		list, err := ParseClassList(c.in)
		if (c.list == nil) != (err != nil) || !reflect.DeepEqual(list, c.list) {
			t.Errorf("ParseClassList(%q) = (%v, %v), want %v", c.in, list, err, c.list)
		}
	}
}
