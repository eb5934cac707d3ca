package coherence

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/memory"
)

// fakeAgent is a scripted coherence participant.
type fakeAgent struct {
	name    string
	trusted bool
	// held maps block -> dirty data (nil = clean copy).
	held     map[arch.Phys][]byte
	recalled []arch.Phys
}

func newFakeAgent(name string, trusted bool) *fakeAgent {
	return &fakeAgent{name: name, trusted: trusted, held: make(map[arch.Phys][]byte)}
}

func (a *fakeAgent) Name() string  { return a.name }
func (a *fakeAgent) Trusted() bool { return a.trusted }
func (a *fakeAgent) Recall(addr arch.Phys) ([]byte, bool) {
	a.recalled = append(a.recalled, addr)
	data, ok := a.held[addr]
	delete(a.held, addr)
	if !ok || data == nil {
		return nil, false
	}
	return data, true
}

func setup(t *testing.T) (*Directory, *memory.Store) {
	t.Helper()
	store, err := memory.NewStore(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return NewDirectory(store), store
}

func TestTrustedGetsExclusive(t *testing.T) {
	dir, _ := setup(t)
	cpu := dir.AddAgent(newFakeAgent("cpu", true))
	if st := dir.RequestShared(cpu, 0); st != Exclusive {
		t.Errorf("lone trusted GetS = %v, want E", st)
	}
	if dir.OwnerOf(0) != cpu {
		t.Error("trusted requestor should own the block")
	}
}

func TestUntrustedNeverGetsEOnRead(t *testing.T) {
	dir, _ := setup(t)
	gpu := dir.AddAgent(newFakeAgent("gpu", false))
	if st := dir.RequestShared(gpu, 0); st != Shared {
		t.Errorf("untrusted GetS = %v, want S (§3.4.3 invariant)", st)
	}
	if dir.OwnerOf(0) == gpu {
		t.Error("untrusted read must not grant ownership")
	}
	if dir.SharersOf(0) != 1 {
		t.Errorf("sharers = %d", dir.SharersOf(0))
	}
}

func TestGetMGrantsOwnership(t *testing.T) {
	dir, _ := setup(t)
	gpu := dir.AddAgent(newFakeAgent("gpu", false))
	if st := dir.RequestModified(gpu, 128); st != Modified {
		t.Errorf("GetM = %v, want M", st)
	}
	if dir.OwnerOf(128) != gpu {
		t.Error("GetM should grant ownership")
	}
}

func TestGetMInvalidatesSharers(t *testing.T) {
	dir, _ := setup(t)
	cpuAgent := newFakeAgent("cpu", true)
	cpu := dir.AddAgent(cpuAgent)
	gpu := dir.AddAgent(newFakeAgent("gpu", false))
	dir.RequestShared(cpu, 0)
	dir.RequestShared(gpu, 0)
	dir.RequestModified(gpu, 0)
	if len(cpuAgent.recalled) == 0 {
		t.Error("GetM must recall other sharers")
	}
	if dir.SharersOf(0) != 0 || dir.OwnerOf(0) != gpu {
		t.Error("post-GetM state wrong")
	}
}

func TestDirtyRecallWritesMemory(t *testing.T) {
	dir, store := setup(t)
	cpuAgent := newFakeAgent("cpu", true)
	cpu := dir.AddAgent(cpuAgent)
	gpu := dir.AddAgent(newFakeAgent("gpu", false))

	// CPU owns the block dirty.
	dir.RequestModified(cpu, 0)
	dirtyData := bytes.Repeat([]byte{0x5A}, arch.BlockSize)
	cpuAgent.held[0] = dirtyData

	// Untrusted GetS: the dirty data must land in memory (memory stays the
	// supplier; the GPU never becomes owner of data it cannot write).
	if st := dir.RequestShared(gpu, 0); st != Shared {
		t.Errorf("GetS after dirty owner = %v, want S", st)
	}
	if got := store.Read(0, arch.BlockSize); !bytes.Equal(got, dirtyData) {
		t.Error("recalled dirty data not written to memory")
	}
	if dir.WBRecalls.Value() != 1 {
		t.Error("writeback recall not counted")
	}
	if dir.OwnerOf(0) != -1 {
		t.Error("previous owner should be demoted to sharer")
	}
}

func TestWriteback(t *testing.T) {
	dir, store := setup(t)
	gpu := dir.AddAgent(newFakeAgent("gpu", false))
	dir.RequestModified(gpu, 256)
	data := bytes.Repeat([]byte{7}, arch.BlockSize)
	if err := dir.Writeback(gpu, 256, data, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(store.Read(256, arch.BlockSize), data) {
		t.Error("writeback data not applied")
	}
	if dir.OwnerOf(256) != -1 {
		t.Error("writeback should drop ownership")
	}
}

func TestWritebackKeepShared(t *testing.T) {
	dir, _ := setup(t)
	gpu := dir.AddAgent(newFakeAgent("gpu", false))
	dir.RequestModified(gpu, 0)
	if err := dir.Writeback(gpu, 0, make([]byte, arch.BlockSize), true); err != nil {
		t.Fatal(err)
	}
	if dir.SharersOf(0) != 1 {
		t.Error("keepShared should retain a shared copy")
	}
}

func TestWritebackByNonOwner(t *testing.T) {
	dir, _ := setup(t)
	gpu := dir.AddAgent(newFakeAgent("gpu", false))
	if err := dir.Writeback(gpu, 0, make([]byte, arch.BlockSize), false); err == nil {
		t.Error("writeback by non-owner should error")
	}
}

func TestEvict(t *testing.T) {
	dir, _ := setup(t)
	gpu := dir.AddAgent(newFakeAgent("gpu", false))
	dir.RequestShared(gpu, 0)
	dir.Evict(gpu, 0)
	if dir.SharersOf(0) != 0 {
		t.Error("evict should drop sharer")
	}
	dir.RequestModified(gpu, 128)
	dir.Evict(gpu, 128)
	if dir.OwnerOf(128) != -1 {
		t.Error("evict should drop ownership")
	}
}

func TestReserveBind(t *testing.T) {
	dir, _ := setup(t)
	id := dir.ReserveAgent()
	dir.BindAgent(id, newFakeAgent("late", false))
	if st := dir.RequestShared(id, 0); st != Shared {
		t.Errorf("bound agent GetS = %v", st)
	}
	defer func() {
		if recover() == nil {
			t.Error("double bind should panic")
		}
	}()
	dir.BindAgent(id, newFakeAgent("again", false))
}

func TestCheckInvariant(t *testing.T) {
	dir, _ := setup(t)
	gpuAgent := newFakeAgent("gpu", false)
	gpu := dir.AddAgent(gpuAgent)
	cpu := dir.AddAgent(newFakeAgent("cpu", true))

	// No owner: trivially fine.
	if err := dir.CheckInvariant(0, nil); err != nil {
		t.Error(err)
	}
	// Trusted owner: fine regardless of permissions.
	dir.RequestModified(cpu, 0)
	if err := dir.CheckInvariant(0, func(Agent, arch.Phys) bool { return false }); err != nil {
		t.Error(err)
	}
	// Untrusted owner with write permission: fine.
	dir.RequestModified(gpu, 128)
	if err := dir.CheckInvariant(128, func(Agent, arch.Phys) bool { return true }); err != nil {
		t.Error(err)
	}
	// Untrusted owner without write permission: invariant violation.
	if err := dir.CheckInvariant(128, func(Agent, arch.Phys) bool { return false }); err == nil {
		t.Error("invariant checker should flag unwritable untrusted owner")
	}
}

// TestRandomProtocolInvariants drives random GetS/GetM/writeback/evict
// traffic from a mix of trusted and untrusted agents and continuously
// checks the structural invariants: at most one owner, an owner is never
// also a sharer, and an untrusted agent only owns blocks it acquired with
// a write request.
func TestRandomProtocolInvariants(t *testing.T) {
	dir, _ := setup(t)
	agents := []*fakeAgent{
		newFakeAgent("cpu", true),
		newFakeAgent("gpu0", false),
		newFakeAgent("gpu1", false),
	}
	var ids []AgentID
	for _, a := range agents {
		ids = append(ids, dir.AddAgent(a))
	}
	// wroteLast[block] = the agent whose GetM was the last ownership grant.
	wroteLast := make(map[arch.Phys]AgentID)
	rng := rand.New(rand.NewSource(77))
	blocks := []arch.Phys{0, 128, 256, 4096}
	for i := 0; i < 5000; i++ {
		id := ids[rng.Intn(len(ids))]
		blk := blocks[rng.Intn(len(blocks))]
		switch rng.Intn(4) {
		case 0:
			dir.RequestShared(id, blk)
		case 1:
			dir.RequestModified(id, blk)
			wroteLast[blk] = id
		case 2:
			if dir.OwnerOf(blk) == id {
				if err := dir.Writeback(id, blk, make([]byte, arch.BlockSize), rng.Intn(2) == 0); err != nil {
					t.Fatal(err)
				}
			}
		case 3:
			dir.Evict(id, blk)
		}
		for _, b := range blocks {
			owner := dir.OwnerOf(b)
			if owner < 0 {
				continue
			}
			if !agents[owner].trusted && wroteLast[b] != owner {
				t.Fatalf("step %d: untrusted agent %d owns %#x without a write grant", i, owner, b)
			}
		}
	}
}

// TestGetMRecallsSharersInAgentOrder: a GetM recalls the other sharers in
// ascending agent order, whatever order they joined in.
func TestGetMRecallsSharersInAgentOrder(t *testing.T) {
	dir, _ := setup(t)
	var order []string
	var ids []AgentID
	for i := 0; i < 5; i++ {
		a := &orderAgent{fakeAgent: newFakeAgent(fmt.Sprintf("gpu%d", i), false), log: &order}
		ids = append(ids, dir.AddAgent(a))
	}
	for _, i := range []int{3, 0, 4, 1} {
		dir.RequestShared(ids[i], 0)
	}
	dir.RequestModified(ids[2], 0)
	if got := strings.Join(order, ","); got != "gpu0,gpu1,gpu3,gpu4" {
		t.Errorf("recall order %s, want gpu0,gpu1,gpu3,gpu4", got)
	}
	if dir.SharersOf(0) != 0 || dir.OwnerOf(0) != ids[2] {
		t.Errorf("after GetM: %d sharers, owner %d", dir.SharersOf(0), dir.OwnerOf(0))
	}
}

type orderAgent struct {
	*fakeAgent
	log *[]string
}

func (a *orderAgent) Recall(addr arch.Phys) ([]byte, bool) {
	*a.log = append(*a.log, a.name)
	return a.fakeAgent.Recall(addr)
}

// TestAgentLimit: sharers are a 64-bit mask, so the 65th agent is refused
// loudly rather than aliasing another agent's bit.
func TestAgentLimit(t *testing.T) {
	dir, _ := setup(t)
	for i := 0; i < MaxAgents; i++ {
		if id := dir.AddAgent(newFakeAgent("a", false)); id != AgentID(i) {
			t.Fatalf("agent %d got ID %d", i, id)
		}
	}
	dir.RequestShared(MaxAgents-1, 0)
	if dir.SharersOf(0) != 1 {
		t.Fatal("the last agent's share was lost")
	}
	defer func() {
		if recover() == nil {
			t.Error("registering agent 65 did not panic")
		}
	}()
	dir.ReserveAgent()
}
