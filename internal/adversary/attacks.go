package adversary

import (
	"fmt"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/arch"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/sim"
)

// blockData derives a deterministic block-sized payload from the context's
// seeded randomness; tag marks the first byte so residue is recognizable.
func (c *Context) blockData(tag byte) *[arch.BlockSize]byte {
	var b [arch.BlockSize]byte
	c.Rand.Read(b[:])
	b[0] = tag
	return &b
}

// grant maps RW pages into p and pulls each translation through the ATS
// with write intent, which is the Figure 3b insertion point: after this the
// border window for the returned frames is open for read and write.
func (c *Context) grant(p *hostos.Process, pages int) (arch.Virt, []arch.Phys, bool) {
	v, err := p.Mmap(uint64(pages)*arch.PageSize, arch.PermRW)
	if err != nil {
		c.Failf("mmap: %v", err)
		return 0, nil, false
	}
	var pas []arch.Phys
	for i := 0; i < pages; i++ {
		res, err := c.ATS.Translate(c.Name, p.ASID(), v+arch.Virt(i*arch.PageSize), arch.Write, c.Eng.Now())
		if err != nil {
			c.Failf("warm-up translation: %v", err)
			return 0, nil, false
		}
		pas = append(pas, res.Entry.PPN.Base())
	}
	return v, pas, true
}

// start launches a process on the accelerator or records a failure.
func (c *Context) start(name string) (*hostos.Process, bool) {
	p, err := c.StartProcess(name)
	if err != nil {
		c.Failf("process start: %v", err)
		return nil, false
	}
	return p, true
}

// attackStaleTLBReplay is the classic escape of paper §2.1: an accelerator
// whose private TLB ignores the shootdown keeps issuing raw physical
// addresses it learned before the OS revoked them. The trojan here is the
// distilled form — it remembers the frames and replays them directly.
func attackStaleTLBReplay(c *Context) {
	p, ok := c.start("victim")
	if !ok {
		return
	}
	const pages = 4
	v, pas, ok := c.grant(p, pages)
	if !ok {
		return
	}
	tr := accel.NewTrojan(c.Port)
	tr.ASID = p.ASID()

	// Baseline: the window really is open.
	c.ExpectAllowed(tr.TryWrite(c.Eng.Now(), pas[0], *c.blockData(0xA1)), "write inside the granted window")

	// The OS pulls write permission; the trojan replays its remembered
	// frames at random block offsets anyway.
	if _, err := c.OS.Protect(p, v, pages*arch.PageSize, arch.PermRead); err != nil {
		c.Failf("protect: %v", err)
		return
	}
	blocksPerPage := int(arch.PageSize / arch.BlockSize)
	for i, n := 0, 3+c.Rand.Intn(5); i < n; i++ {
		pa := pas[c.Rand.Intn(pages)] + arch.Phys(c.Rand.Intn(blocksPerPage))*arch.BlockSize
		c.ExpectBlocked(tr.TryWrite(c.Eng.Now(), pa, *c.blockData(0xA2)),
			fmt.Sprintf("stale-TLB write of %#x after write revocation", pa))
	}

	// The OS unmaps the buffer entirely; the frames go back to the
	// allocator, so even reads through the stale translations must die.
	if err := c.OS.Unmap(p, v, pages*arch.PageSize); err != nil {
		c.Failf("unmap: %v", err)
		return
	}
	for i, n := 0, 3+c.Rand.Intn(5); i < n; i++ {
		pa := pas[c.Rand.Intn(pages)] + arch.Phys(c.Rand.Intn(blocksPerPage))*arch.BlockSize
		_, reached := tr.TryRead(c.Eng.Now(), pa)
		c.ExpectBlocked(reached, fmt.Sprintf("stale-TLB read of %#x after unmap", pa))
	}
}

// deafHier is an accelerator that ignores every flush request from Border
// Control — both the selective page flush and the full-cache flush — while
// inheriting everything else. Paper §3.2.4: even then there is no security
// vulnerability, only the accelerator's own data loss.
type deafHier struct{ *accel.Sandboxed }

func (d deafHier) FlushPage(at sim.Time, ppn arch.PPN) sim.Time { return at }
func (d deafHier) FlushAll(at sim.Time) sim.Time                { return at }

// attackFlushIgnore dirties a block legitimately, goes deaf to the
// downgrade flush so the dirty line survives the revocation, then writes it
// back long after the window closed. The writeback must be blocked and host
// memory must keep its pre-store contents.
func attackFlushIgnore(c *Context) {
	p, ok := c.start("victim")
	if !ok {
		return
	}
	v, pas, ok := c.grant(p, 1)
	if !ok {
		return
	}
	pa := pas[0]

	// Legitimate store while writable: dirties the caches, not memory.
	payload := c.blockData(0xB2)
	if _, err := c.Hier.Access(c.Eng.Now(), 0, p.ASID(), accel.Op{Kind: arch.Write, Size: 32, Addr: v}, payload[:32]); err != nil {
		c.Failf("legitimate store: %v", err)
		return
	}
	var before [arch.BlockSize]byte
	c.OS.Store().ReadInto(pa, before[:])

	// The accelerator stops honoring flushes, then the OS revokes write
	// permission: the downgrade's flush request is silently dropped and the
	// stale dirty block stays behind.
	c.BC.SetAccelerator(deafHier{c.Hier})
	if _, err := c.OS.Protect(p, v, arch.PageSize, arch.PermRead); err != nil {
		c.Failf("protect: %v", err)
		return
	}

	// Much later the engine finally writes its caches back — under the old,
	// revoked permission. The border must stop every one of those blocks.
	c.Hier.FlushAll(c.Eng.Now())
	var after [arch.BlockSize]byte
	c.OS.Store().ReadInto(pa, after[:])
	c.ExpectBlocked(after != before, "stale dirty writeback after ignored downgrade flush")
	c.BC.SetAccelerator(c.Hier)
}

// attackDMADowngradeRace is the in-flight DMA race of §3.2.4: a streaming
// engine latches its translations once and keeps transferring while the OS
// downgrades the destination mid-stream. The stale physical writes must be
// stopped at the border, aborting the stream.
func attackDMADowngradeRace(c *Context) {
	p, ok := c.start("victim")
	if !ok {
		return
	}
	const blocks = 8
	size := uint64(blocks * arch.BlockSize)
	src, err := p.Mmap(arch.PageSize, arch.PermRW)
	if err != nil {
		c.Failf("mmap src: %v", err)
		return
	}
	dst, err := p.Mmap(arch.PageSize, arch.PermRW)
	if err != nil {
		c.Failf("mmap dst: %v", err)
		return
	}
	seed := make([]byte, size)
	c.Rand.Read(seed)
	if err := p.Write(src, seed); err != nil {
		c.Failf("seed src: %v", err)
		return
	}

	s, err := accel.NewStreamer(accel.StreamerConfig{Name: c.Name, Clock: c.Clock, Channels: 2}, c.Eng, c.ATS, c.Port)
	if err != nil {
		c.Failf("streamer: %v", err)
		return
	}
	s.Misbehave.StaleTranslations = true

	// First pass is legal and latches the translations.
	if err := s.Launch([]*accel.StreamJob{{ASID: p.ASID(), Src: src, Dst: dst, Len: size}}); err != nil {
		c.Failf("launch: %v", err)
		return
	}
	c.Eng.Run()
	c.ExpectAllowed(s.Finished() && s.Err() == nil, "legitimate DMA copy")

	// The OS pulls write permission on the destination; the engine replays
	// the transfer through its latched physical addresses.
	if _, err := c.OS.Protect(p, dst, arch.PageSize, arch.PermRead); err != nil {
		c.Failf("protect: %v", err)
		return
	}
	if err := s.Launch([]*accel.StreamJob{{ASID: p.ASID(), Src: src, Dst: dst, Len: size}}); err != nil {
		c.Failf("relaunch: %v", err)
		return
	}
	c.Eng.Run()
	c.ExpectBlocked(s.Err() == nil, "stale-translation DMA into the downgraded destination")
}

// attackOOBProbe fires raw physical addresses that were never granted to
// anyone: beyond the end of physical memory, and random in-bounds frames
// belonging to the OS, to page tables, or to nobody. Fail-closed means all
// of them bounce.
func attackOOBProbe(c *Context) {
	p, ok := c.start("victim")
	if !ok {
		return
	}
	_, pas, ok := c.grant(p, 1)
	if !ok {
		return
	}
	granted := pas[0]
	tr := accel.NewTrojan(c.Port)
	tr.ASID = p.ASID()
	c.ExpectAllowed(tr.TryWrite(c.Eng.Now(), granted, *c.blockData(0xC3)), "write inside the granted frame")

	bound := arch.Phys(c.OS.Store().Size())
	for i, n := 0, 4+c.Rand.Intn(4); i < n; i++ {
		pa := (bound + arch.Phys(c.Rand.Int63n(1<<40))).BlockOf()
		_, reached := tr.TryRead(c.Eng.Now(), pa)
		c.ExpectBlocked(reached, fmt.Sprintf("read beyond physical memory at %#x", pa))
		c.ExpectBlocked(tr.TryWrite(c.Eng.Now(), pa, *c.blockData(0xC4)),
			fmt.Sprintf("write beyond physical memory at %#x", pa))
	}
	for i, n := 0, 4+c.Rand.Intn(4); i < n; i++ {
		pa := arch.Phys(c.Rand.Int63n(int64(bound))).BlockOf()
		if pa.PageOf() == granted.PageOf() {
			continue // the one frame legitimately in the window
		}
		_, reached := tr.TryRead(c.Eng.Now(), pa)
		c.ExpectBlocked(reached, fmt.Sprintf("probe of ungranted frame %#x", pa))
	}
}

// attackCrossASIDReplay replays a completed process's frames under assorted
// wire identities — the dead process's own ASID, a live bystander's, and a
// fabricated one. Figure 3e's table zeroing must block them all, and every
// violation must be attributed to the identity on the wire, never to the
// bystander's good name via the single-active-process fallback.
func attackCrossASIDReplay(c *Context) {
	a, ok := c.start("victim-a")
	if !ok {
		return
	}
	b, ok := c.start("bystander-b")
	if !ok {
		return
	}
	_, pas, ok := c.grant(a, 1)
	if !ok {
		return
	}
	paA := pas[0]
	tr := accel.NewTrojan(c.Port)
	tr.ASID = a.ASID()
	c.ExpectAllowed(tr.TryWrite(c.Eng.Now(), paA, *c.blockData(0xD4)), "write while the victim still runs")

	// Victim finishes; its frames leave the table (and the allocator may
	// hand them to anyone next).
	c.Complete(a)

	for _, wire := range []arch.ASID{a.ASID(), b.ASID(), 9999} {
		tr.ASID = wire
		before := len(c.OS.Violations)
		_, reached := tr.TryRead(c.Eng.Now(), paA)
		c.ExpectBlocked(reached, fmt.Sprintf("post-completion read under wire asid %d", wire))
		c.ExpectBlocked(tr.TryWrite(c.Eng.Now(), paA, *c.blockData(0xD5)),
			fmt.Sprintf("post-completion write under wire asid %d", wire))
		for _, viol := range c.OS.Violations[before:] {
			if viol.ASID != wire {
				c.Failf("violation attributed to asid %d, want the wire asid %d", viol.ASID, wire)
			}
		}
	}
	if b.Dead() {
		c.Failf("bystander was killed for someone else's replay")
	}
}

// attackDirtyWritebackInject lets the downgrade flush proceed honestly,
// then fabricates writebacks (and ownership upgrades) for the flushed
// frame as if stale dirty data were still owed — both as anonymous
// hardware (ASID 0) and under the victim's identity.
func attackDirtyWritebackInject(c *Context) {
	p, ok := c.start("victim")
	if !ok {
		return
	}
	v, pas, ok := c.grant(p, 1)
	if !ok {
		return
	}
	pa := pas[0]

	payload := c.blockData(0xE5)
	if _, err := c.Hier.Access(c.Eng.Now(), 0, p.ASID(), accel.Op{Kind: arch.Write, Size: 32, Addr: v}, payload[:32]); err != nil {
		c.Failf("legitimate store: %v", err)
		return
	}

	// Honest downgrade: Border Control flushes the dirty block under the
	// old permissions (Figure 3d ordering), then narrows the table.
	if _, err := c.OS.Protect(p, v, arch.PageSize, arch.PermRead); err != nil {
		c.Failf("protect: %v", err)
		return
	}
	var before [arch.BlockSize]byte
	c.OS.Store().ReadInto(pa, before[:])

	evil := c.blockData(0x66)
	for _, wire := range []arch.ASID{0, p.ASID()} {
		_, reached := c.Port.WriteBlock(c.Eng.Now(), wire, pa, evil)
		c.ExpectBlocked(reached, fmt.Sprintf("fabricated flush writeback under asid %d", wire))
		_, upgraded := c.Port.Upgrade(c.Eng.Now(), wire, pa)
		c.ExpectBlocked(upgraded, fmt.Sprintf("ownership upgrade of the flushed frame under asid %d", wire))
	}
	var after [arch.BlockSize]byte
	c.OS.Store().ReadInto(pa, after[:])
	if after != before {
		c.Failf("injected writeback changed host memory at %#x", pa)
	}
}
