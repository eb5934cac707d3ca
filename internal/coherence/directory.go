// Package coherence implements a null-directory MOESI-style coherence point
// for the trusted side of the border. The directory sits logically between
// the last-level caches of all agents (CPU cache hierarchy, accelerator L2s)
// and DRAM.
//
// It also encodes the cache-organization invariant Border Control requires
// (paper §3.4.3): an untrusted cache must never become the owner (supplier)
// of a dirty block for which it does not hold write permission. The
// directory enforces this structurally: read-only requests from untrusted
// agents are never granted an ownership state, and a dirty block passed down
// to an untrusted agent with a read request is first written back to memory
// so memory stays up to date.
package coherence

import (
	"fmt"
	"math/bits"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/dense"
	"bordercontrol/internal/memory"
	"bordercontrol/internal/stats"
)

// AgentID identifies a coherence participant.
type AgentID int

// MaxAgents is how many agents one directory tracks: a block's sharers are
// a bitmask of agent IDs.
const MaxAgents = 64

// State is a MOESI cache-coherence state as tracked by the directory for
// one agent.
type State uint8

// MOESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Owned
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Agent is the directory's view of one caching agent. Recall asks the agent
// to surrender (and return, if dirty) a block; the agent returns the data if
// it was dirty.
type Agent interface {
	// Name identifies the agent in diagnostics.
	Name() string
	// Trusted reports whether the agent is inside the trusted boundary.
	// Untrusted agents are subject to the ownership restriction.
	Trusted() bool
	// Recall invalidates the block at addr in the agent's caches, returning
	// the dirty data if the agent held it modified.
	Recall(addr arch.Phys) (data []byte, dirty bool)
}

// blockState is the directory entry of one block. The zero value is a block
// no agent holds.
type blockState struct {
	sharers uint64 // bit i set: agent i holds a shared copy
	owner   uint8  // 1 + the ID of the agent in E/M/O; 0 when none
}

// ownerID returns the owning agent, or -1.
func (b *blockState) ownerID() AgentID { return AgentID(b.owner) - 1 }

func (b *blockState) setOwner(id AgentID) { b.owner = uint8(id + 1) }

// Directory is a full-map directory over 128-byte blocks. It is functional
// (state only); timing is charged by the border port that invokes it.
type Directory struct {
	agents []Agent
	blocks dense.Table[blockState] // by block number
	mem    *memory.Store

	GetS      stats.Counter
	GetM      stats.Counter
	Recalls   stats.Counter
	WBRecalls stats.Counter
}

// NewDirectory returns an empty directory writing recalled data to mem.
func NewDirectory(mem *memory.Store) *Directory {
	return &Directory{mem: mem}
}

// AddAgent registers an agent and returns its ID. It panics past
// MaxAgents agents.
func (d *Directory) AddAgent(a Agent) AgentID {
	if len(d.agents) == MaxAgents {
		panic(fmt.Sprintf("coherence: directory is full (%d agents)", MaxAgents))
	}
	d.agents = append(d.agents, a)
	return AgentID(len(d.agents) - 1)
}

// ReserveAgent allocates an agent ID to be bound later with BindAgent.
// Construction-order helper: a cache hierarchy needs its border port (which
// needs the agent ID) before the hierarchy itself exists.
func (d *Directory) ReserveAgent() AgentID { return d.AddAgent(nil) }

// BindAgent attaches the agent for a reserved ID.
func (d *Directory) BindAgent(id AgentID, a Agent) {
	if d.agents[id] != nil {
		panic(fmt.Sprintf("coherence: agent %d already bound", id))
	}
	d.agents[id] = a
}

// block returns the entry of the block at addr, creating it on first touch.
func (d *Directory) block(addr arch.Phys) *blockState {
	return d.blocks.At(uint64(addr >> arch.BlockShift))
}

// peek returns the entry of the block at addr, or nil when it was never
// touched (no agent holds it).
func (d *Directory) peek(addr arch.Phys) *blockState {
	return d.blocks.Ptr(uint64(addr >> arch.BlockShift))
}

// RequestShared handles a GetS: agent id wants a readable copy of the block
// at addr. It returns the coherence state granted to the requestor.
//
// Rules:
//   - If another agent owns the block dirty, its data is recalled to memory
//     first (memory stays the supplier for untrusted requestors), then both
//     become sharers.
//   - Trusted requestors with no other sharers get Exclusive; untrusted
//     requestors never get an ownership state on a read (the §3.4.3
//     invariant), they get Shared.
func (d *Directory) RequestShared(id AgentID, addr arch.Phys) State {
	addr = addr.BlockOf()
	d.GetS.Inc()
	b := d.block(addr)
	if owner := b.ownerID(); owner >= 0 && owner != id {
		d.recall(owner, addr)
		b.sharers |= 1 << owner
		b.owner = 0
	}
	b.sharers |= 1 << id
	if b.sharers == 1<<id && d.agents[id].Trusted() {
		b.setOwner(id)
		b.sharers = 0
		return Exclusive
	}
	return Shared
}

// RequestModified handles a GetM: agent id wants a writable copy. All other
// copies are recalled/invalidated and the requestor becomes Modified owner.
// Border Control has already checked write permission by the time a GetM
// from an untrusted agent reaches the directory.
func (d *Directory) RequestModified(id AgentID, addr arch.Phys) State {
	addr = addr.BlockOf()
	d.GetM.Inc()
	b := d.block(addr)
	if owner := b.ownerID(); owner >= 0 && owner != id {
		d.recall(owner, addr)
		b.owner = 0
	}
	// Other sharers are recalled in ascending agent order.
	for others := b.sharers &^ (1 << id); others != 0; others &= others - 1 {
		d.recall(AgentID(bits.TrailingZeros64(others)), addr)
	}
	b.sharers = 0
	b.setOwner(id)
	return Modified
}

// Writeback handles a PutM: the owner returns dirty data to memory and
// drops to Invalid (or stays as a clean sharer when keepShared is set).
func (d *Directory) Writeback(id AgentID, addr arch.Phys, data []byte, keepShared bool) error {
	addr = addr.BlockOf()
	b := d.peek(addr)
	if b == nil || b.ownerID() != id {
		return fmt.Errorf("coherence: writeback of %#x by non-owner %s (owner=%d)",
			addr, d.agents[id].Name(), d.OwnerOf(addr))
	}
	d.mem.Write(addr, data)
	b.owner = 0
	if keepShared {
		b.sharers |= 1 << id
	}
	return nil
}

// Evict notes that agent id silently dropped a clean block.
func (d *Directory) Evict(id AgentID, addr arch.Phys) {
	b := d.peek(addr.BlockOf())
	if b == nil {
		return
	}
	if b.ownerID() == id {
		b.owner = 0
	}
	b.sharers &^= 1 << id
}

// recall invalidates an agent's copy, writing dirty data back to memory.
func (d *Directory) recall(id AgentID, addr arch.Phys) {
	d.Recalls.Inc()
	data, dirty := d.agents[id].Recall(addr)
	if dirty {
		d.WBRecalls.Inc()
		d.mem.Write(addr, data)
	}
}

// OwnerOf returns the owning agent of the block, or -1.
func (d *Directory) OwnerOf(addr arch.Phys) AgentID {
	if b := d.peek(addr); b != nil {
		return b.ownerID()
	}
	return -1
}

// SharersOf returns how many agents share the block.
func (d *Directory) SharersOf(addr arch.Phys) int {
	if b := d.peek(addr); b != nil {
		return bits.OnesCount64(b.sharers)
	}
	return 0
}

// CheckInvariant verifies the §3.4.3 invariant for a block: if an untrusted
// agent owns it, the ownership must have been granted through a write
// request (which Border Control checked). The canWrite callback reports
// whether the border would permit the owner to write the block now.
func (d *Directory) CheckInvariant(addr arch.Phys, canWrite func(agent Agent, addr arch.Phys) bool) error {
	b := d.peek(addr)
	if b == nil || b.owner == 0 {
		return nil
	}
	owner := d.agents[b.ownerID()]
	if !owner.Trusted() && !canWrite(owner, addr.BlockOf()) {
		return fmt.Errorf("coherence: untrusted agent %q owns block %#x without write permission",
			owner.Name(), addr.BlockOf())
	}
	return nil
}

// RegisterMetrics publishes the directory's traffic counters under s
// ("coherence.get_s", "coherence.recalls", ...).
func (d *Directory) RegisterMetrics(s stats.Scope) {
	s.Counter("get_s", &d.GetS)
	s.Counter("get_m", &d.GetM)
	s.Counter("recalls", &d.Recalls)
	s.Counter("wb_recalls", &d.WBRecalls)
}
