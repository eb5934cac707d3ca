package tracerec

import (
	"errors"
	"strings"
	"testing"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/workload"
)

// TestRecordRunsGeneratorVerify: Record holds the generator to its own
// output check, once, on the recording. A spec whose Verify rejects the
// outputs it built cannot be recorded, and the error names the workload.
func TestRecordRunsGeneratorVerify(t *testing.T) {
	good, ok := workload.ByName("hotspot")
	if !ok {
		t.Fatal("hotspot not registered")
	}
	wrong := errors.New("outputs rejected")
	bad := good
	bad.Name = "hotspot-wrong"
	bad.Build = func(p *hostos.Process, scale int) (*accel.Program, error) {
		prog, err := good.Build(p, scale)
		if err != nil {
			return nil, err
		}
		prog.Verify = func(*hostos.Process) error { return wrong }
		return prog, nil
	}
	tr, err := Record(bad, 1)
	if !errors.Is(err, wrong) {
		t.Fatalf("Record of a spec failing its own check: err = %v, want it to wrap %v", err, wrong)
	}
	if tr != nil {
		t.Error("Record returned a trace alongside its error")
	}
	if !strings.Contains(err.Error(), bad.Name) {
		t.Errorf("error %q does not name the workload %q", err, bad.Name)
	}
}
