package core

import (
	"fmt"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/stats"
)

// BCCConfig describes a Border Control Cache geometry.
type BCCConfig struct {
	// Entries is the number of cache entries (64 in the paper's 8 KB BCC).
	Entries int
	// PagesPerEntry is the sub-blocking factor: how many consecutive
	// physical pages one entry covers (512 in the paper, i.e. one 128-byte
	// table block). Must be a power of two no larger than PagesPerBlock.
	PagesPerEntry int
	// TagBits sizes the per-entry tag for SizeBytes; the paper uses 36.
	TagBits int
}

// DefaultBCCConfig is the paper's 8 KB BCC: 64 entries of 512 pages.
func DefaultBCCConfig() BCCConfig {
	return BCCConfig{Entries: 64, PagesPerEntry: 512, TagBits: 36}
}

// Validate checks the configuration.
func (c BCCConfig) Validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("core: BCC needs at least one entry, got %d", c.Entries)
	}
	p := c.PagesPerEntry
	if p <= 0 || p > PagesPerBlock || p&(p-1) != 0 {
		return fmt.Errorf("core: BCC pages/entry %d not a power of two in [1,%d]", p, PagesPerBlock)
	}
	if c.TagBits <= 0 {
		return fmt.Errorf("core: BCC tag bits must be positive, got %d", c.TagBits)
	}
	return nil
}

// SizeBytes returns the BCC's storage cost: per entry, a tag plus two
// permission bits per covered page (the Figure 6 x-axis).
func (c BCCConfig) SizeBytes() float64 {
	bitsPerEntry := float64(c.TagBits + bitsPerPage*c.PagesPerEntry)
	return float64(c.Entries) * bitsPerEntry / 8
}

type bccEntry struct {
	valid bool
	tag   uint64 // ppn / PagesPerEntry
	lru   uint64
	perms []arch.Perm
}

// BCC is the Border Control Cache: a small, fully-associative,
// explicitly-managed cache of Protection Table blocks (paper §3.1.2). It
// requires no hardware coherence because Border Control itself performs
// every update (write-through to the table).
type BCC struct {
	cfg     BCCConfig
	entries []bccEntry
	tick    uint64

	// CheckHitMiss counts probes made while checking memory requests — the
	// Figure 6 miss ratio.
	CheckHitMiss stats.HitMiss
	// Fills counts entry allocations (each costs one table-block read).
	Fills stats.Counter
	// WriteThroughs counts permission updates propagated to the table.
	WriteThroughs stats.Counter
}

// NewBCC returns an empty BCC.
func NewBCC(cfg BCCConfig) (*BCC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &BCC{cfg: cfg, entries: make([]bccEntry, cfg.Entries)}
	perms := make([]arch.Perm, cfg.Entries*cfg.PagesPerEntry)
	for i := range b.entries {
		b.entries[i].perms = perms[i*cfg.PagesPerEntry : (i+1)*cfg.PagesPerEntry : (i+1)*cfg.PagesPerEntry]
	}
	return b, nil
}

// Config returns the geometry.
func (b *BCC) Config() BCCConfig { return b.cfg }

func (b *BCC) tagOf(ppn arch.PPN) uint64 { return uint64(ppn) / uint64(b.cfg.PagesPerEntry) }
func (b *BCC) slotOf(ppn arch.PPN) int   { return int(uint64(ppn) % uint64(b.cfg.PagesPerEntry)) }

func (b *BCC) find(ppn arch.PPN) *bccEntry {
	t := b.tagOf(ppn)
	for i := range b.entries {
		if b.entries[i].valid && b.entries[i].tag == t {
			return &b.entries[i]
		}
	}
	return nil
}

// Probe looks up the cached permissions for ppn during a request check.
func (b *BCC) Probe(ppn arch.PPN) (arch.Perm, bool) {
	e := b.find(ppn)
	if e == nil {
		b.CheckHitMiss.Record(false)
		return arch.PermNone, false
	}
	b.tick++
	e.lru = b.tick
	b.CheckHitMiss.Record(true)
	return e.perms[b.slotOf(ppn)], true
}

// victim returns the LRU entry.
func (b *BCC) victim() *bccEntry {
	v := &b.entries[0]
	for i := range b.entries {
		e := &b.entries[i]
		if !e.valid {
			return e
		}
		if e.lru < v.lru {
			v = e
		}
	}
	return v
}

// Fill allocates an entry for ppn's group, loading the permissions from the
// table. It returns the entry's cached permission for ppn. The caller
// charges the table-block read.
func (b *BCC) Fill(ppn arch.PPN, table *ProtectionTable) arch.Perm {
	b.Fills.Inc()
	e := b.victim()
	b.tick++
	e.valid = true
	e.tag = b.tagOf(ppn)
	e.lru = b.tick
	table.LookupRange(arch.PPN(e.tag*uint64(b.cfg.PagesPerEntry)), e.perms)
	return e.perms[b.slotOf(ppn)]
}

// Update applies a translation insertion (paper Figure 3b): widen the
// cached permissions for ppn, filling the entry first on a miss. It
// reports whether the cached bits changed (a change is written through to
// the table by the caller).
func (b *BCC) Update(ppn arch.PPN, perm arch.Perm, table *ProtectionTable) (changed bool, filled bool) {
	perm = perm.Border()
	e := b.find(ppn)
	if e == nil {
		b.Fill(ppn, table)
		e = b.find(ppn)
		filled = true
	}
	b.tick++
	e.lru = b.tick
	slot := b.slotOf(ppn)
	if e.perms[slot]|perm != e.perms[slot] {
		e.perms[slot] |= perm
		b.WriteThroughs.Inc()
		return true, filled
	}
	return false, filled
}

// Downgrade overwrites the cached permission for ppn, if present. The
// caller performs this only after the accelerator flush completes (paper
// §3.2.4).
func (b *BCC) Downgrade(ppn arch.PPN, perm arch.Perm) {
	if e := b.find(ppn); e != nil {
		e.perms[b.slotOf(ppn)] = perm.Border()
	}
}

// InvalidateAll empties the BCC (full-flush downgrades, process
// completion).
func (b *BCC) InvalidateAll() {
	for i := range b.entries {
		b.entries[i].valid = false
	}
}

// ValidEntries returns the number of valid entries (for tests).
func (b *BCC) ValidEntries() int {
	n := 0
	for i := range b.entries {
		if b.entries[i].valid {
			n++
		}
	}
	return n
}

// RegisterMetrics publishes the BCC's counters under s ("hits", "misses",
// "miss_ratio", "fills", "write_throughs" within the given scope).
func (b *BCC) RegisterMetrics(s stats.Scope) {
	s.HitMiss("", &b.CheckHitMiss)
	s.Counter("fills", &b.Fills)
	s.Counter("write_throughs", &b.WriteThroughs)
}
