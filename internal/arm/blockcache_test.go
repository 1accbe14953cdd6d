package arm_test

import (
	"testing"

	. "repro/internal/arm"
	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/rng"
)

// assertSameRun checks the two machines are architecturally
// indistinguishable after running the same program — the block cache's
// semantic-invisibility contract, including the cycle model.
func assertSameRun(t *testing.T, on, off *Machine) {
	t.Helper()
	for _, r := range []Reg{R0, R1, R2, R3, R4, R5, R6, R7, R8, R9} {
		if a, b := on.Reg(r), off.Reg(r); a != b {
			t.Errorf("%v: cached %#x, uncached %#x", r, a, b)
		}
	}
	if a, b := on.PC(), off.PC(); a != b {
		t.Errorf("PC: cached %#x, uncached %#x", a, b)
	}
	if a, b := on.CPSR(), off.CPSR(); a != b {
		t.Errorf("CPSR: cached %+v, uncached %+v", a, b)
	}
	if a, b := on.Retired(), off.Retired(); a != b {
		t.Errorf("retired: cached %d, uncached %d", a, b)
	}
	if a, b := on.Cyc.Total(), off.Cyc.Total(); a != b {
		t.Errorf("cycles: cached %d, uncached %d", a, b)
	}
}

func runToSVC(t *testing.T, m *Machine) {
	t.Helper()
	m.SetCPSR(PSR{Mode: ModeUsr, I: false})
	m.SetPC(0)
	if tr := m.Run(100); tr.Kind != TrapSVC {
		t.Fatalf("trap = %v (%v at %#x), want SVC", tr.Kind, tr.FaultErr, tr.FaultAddr)
	}
}

func tlbCounters(m *Machine) (hits, misses uint64) {
	c := m.TLB.Counters()
	return c.Hits, c.Misses
}

// TestBlockCacheWarmLoopStats: a hot loop must be served from the block
// cache after the first pass (hits accumulate, mean block length > 1) with
// results identical to the per-instruction path.
func TestBlockCacheWarmLoopStats(t *testing.T) {
	build := func() *Machine {
		p := asm.New()
		p.Movw(R0, 0).
			Movw(R1, 0).
			Label("loop").
			Add(R0, R0, R1).
			AddI(R1, R1, 1).
			CmpI(R1, 100).
			Bne("loop").
			Hlt()
		return newTestMachine(t, p)
	}
	on, off := build(), build()
	off.EnableBlockCache(false)
	runToHalt(t, on)
	runToHalt(t, off)
	assertSameRun(t, on, off)
	s := on.BlockCacheStats()
	if !s.Enabled || s.Fills == 0 || s.Hits < 50 {
		t.Fatalf("warm loop never hit the block cache: %+v", s)
	}
	if s.MeanBlockLen() <= 1 {
		t.Fatalf("mean block length %.2f, want > 1 (%+v)", s.MeanBlockLen(), s)
	}
	if o := off.BlockCacheStats(); o.Enabled || o.Hits != 0 || o.Fills != 0 {
		t.Fatalf("disabled block cache accumulated work: %+v", o)
	}
}

// TestBlockCacheSelfModifyStoreAhead: a store that patches a *later*
// instruction of the currently executing block must stop the block before
// the stale predecoded word runs — the patched instruction executes, and
// the entry is invalidated. This is the page-version recheck after every
// store inside runBlock.
func TestBlockCacheSelfModifyStoreAhead(t *testing.T) {
	patchImg, err := asm.New().Movw(R2, 99).Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Machine {
		p := asm.New()
		// One straight-line block: the STR patches "target", which is the
		// next instruction after it in the same block.
		p.MovLabel(R0, "target").
			MovImm32(R1, patchImg[0]).
			Str(R1, R0, 0).
			Label("target").Movw(R2, 1). // predecoded as r2=1; patched to r2=99
			Hlt()
		return newTestMachine(t, p)
	}
	on, off := build(), build()
	off.EnableBlockCache(false)
	runToHalt(t, on)
	runToHalt(t, off)
	if on.Reg(R2) != 99 {
		t.Fatalf("r2 = %d, want 99 (stale predecoded instruction executed)", on.Reg(R2))
	}
	assertSameRun(t, on, off)
	if s := on.BlockCacheStats(); s.Invalidated == 0 {
		t.Fatalf("self-modifying store did not invalidate the block: %+v", s)
	}
}

// TestBlockCacheSelfModifyLoopBack: a store that patches an instruction
// of an *earlier*, already-cached block must force that block to be
// rebuilt when the loop branches back to it. The program executes
// "movw r2, #1", patches that very word to "movw r2, #99" from a later
// block, and loops back over it.
func TestBlockCacheSelfModifyLoopBack(t *testing.T) {
	patchImg, err := asm.New().Movw(R2, 99).Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Machine {
		p := asm.New()
		p.Label("target").Movw(R2, 1). // pass 1: r2=1; pass 2 (patched): r2=99
						CmpI(R5, 1).
						Beq("done").
						MovLabel(R0, "target").
						MovImm32(R1, patchImg[0]).
						Str(R1, R0, 0). // self-modify: overwrite "target"
						Movw(R5, 1).
						B("target").
						Label("done").Hlt()
		return newTestMachine(t, p)
	}
	on, off := build(), build()
	off.EnableBlockCache(false)
	runToHalt(t, on)
	runToHalt(t, off)
	if on.Reg(R2) != 99 {
		t.Fatalf("r2 = %d, want 99 (stale cached block executed)", on.Reg(R2))
	}
	assertSameRun(t, on, off)
	// Two invalidations: the storing block stops itself after the store,
	// and the earlier "target" block fails its page-version check when
	// the loop branches back to it.
	if s := on.BlockCacheStats(); s.Invalidated < 2 {
		t.Fatalf("patched code page did not invalidate both cached blocks: %+v", s)
	}
}

// TestBlockCacheRemapSecondPage: a straight-line run that falls off the end
// of one code page into the next is split at the page boundary (blocks
// never cross pages), so remapping the second page's VA to a different
// frame must redirect execution — the second block's TLB-epoch check forces
// revalidation through the new translation.
func TestBlockCacheRemapSecondPage(t *testing.T) {
	phys, err := mem.NewPhysical(mem.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(phys, rng.New(1))
	l1 := phys.SecurePageBase(0)
	l2 := phys.SecurePageBase(1)
	page1 := phys.SecurePageBase(2)
	page2A := phys.SecurePageBase(3)
	page2B := phys.SecurePageBase(4)
	const va1, va2 = uint32(0x0000), uint32(0x1000)
	phys.Write(l1+uint32(mmu.L1Index(va1))*4, l2|mmu.PteValid, mem.Secure)
	phys.Write(l2+uint32(mmu.L2Index(va1))*4, mmu.PTE(page1, mmu.Perms{Exec: true}), mem.Secure)
	phys.Write(l2+uint32(mmu.L2Index(va2))*4, mmu.PTE(page2A, mmu.Perms{Exec: true}), mem.Secure)

	// Tail of page 1: two straight-line words ending at the boundary, so
	// execution falls through into page 2.
	tail, err := asm.New().Movw(R0, 0xA0).Movw(R3, 1).Assemble(va2 - 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range tail {
		phys.Write(page1+mem.PageSize-8+uint32(i)*4, w, mem.Secure)
	}
	imgA, err := asm.New().Movw(R1, 0xA2).Svc().Assemble(va2)
	if err != nil {
		t.Fatal(err)
	}
	imgB, err := asm.New().Movw(R1, 0xB2).Svc().Assemble(va2)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range imgA {
		phys.Write(page2A+uint32(i)*4, w, mem.Secure)
	}
	for i, w := range imgB {
		phys.Write(page2B+uint32(i)*4, w, mem.Secure)
	}
	m.SetSCRNS(false)
	m.SetTTBR0(mem.Secure, l1)
	m.TLB.Flush()

	run := func() {
		t.Helper()
		m.SetCPSR(PSR{Mode: ModeUsr, I: false})
		m.SetPC(va2 - 8)
		if tr := m.Run(100); tr.Kind != TrapSVC {
			t.Fatalf("trap = %v (%v at %#x), want SVC", tr.Kind, tr.FaultErr, tr.FaultAddr)
		}
	}
	run()
	if m.Reg(R1) != 0xA2 {
		t.Fatalf("first run r1 = %#x, want 0xA2", m.Reg(R1))
	}
	run() // warm both blocks
	if s := m.BlockCacheStats(); s.Hits == 0 {
		t.Fatalf("warm pass never hit the block cache: %+v", s)
	}
	// Remap VA 0x1000 → frame B, as the monitor would: PT store + flush.
	phys.Write(l2+uint32(mmu.L2Index(va2))*4, mmu.PTE(page2B, mmu.Perms{Exec: true}), mem.Secure)
	m.TLB.Flush()
	run()
	if m.Reg(R1) != 0xB2 {
		t.Fatalf("post-remap r1 = %#x, want 0xB2 (stale block from old frame)", m.Reg(R1))
	}
	if m.Reg(R0) != 0xA0 || m.Reg(R3) != 1 {
		t.Fatalf("page-1 tail did not execute: r0=%#x r3=%d", m.Reg(R0), m.Reg(R3))
	}
}

// TestBlockCacheTLBFlushRevalidates: the monitor flushes the TLB on every
// world crossing, so a warm enclave's blocks go epoch-stale on each
// re-entry. The next dispatch must revalidate through one architectural
// fetch — consulting the real TLB machinery — rather than serving the stale
// entry or rebuilding from scratch.
func TestBlockCacheTLBFlushRevalidates(t *testing.T) {
	p := asm.New()
	p.Movw(R0, 5).AddI(R0, R0, 1).AddI(R0, R0, 2).Svc()
	m, _ := buildEnclaveMachine(t, p)
	if tr := m.Run(100); tr.Kind != TrapSVC {
		t.Fatalf("trap = %v (%v)", tr.Kind, tr.FaultErr)
	}
	runToSVC(t, m) // warm
	warm := m.BlockCacheStats()
	if warm.Hits == 0 {
		t.Fatalf("warm pass never hit the block cache: %+v", warm)
	}
	tlbHits, tlbMisses := tlbCounters(m)
	m.TLB.Flush() // what the monitor does per crossing
	runToSVC(t, m)
	flushed := m.BlockCacheStats()
	if flushed.Revalidated == warm.Revalidated {
		t.Fatalf("post-flush pass never revalidated: warm %+v, flushed %+v", warm, flushed)
	}
	h2, m2 := tlbCounters(m)
	if h2 == tlbHits && m2 == tlbMisses {
		t.Fatal("post-flush revalidation never consulted the TLB")
	}
	if m.Reg(R0) != 8 {
		t.Fatalf("r0 = %d, want 8", m.Reg(R0))
	}
}

// TestBlockCacheForeignRestoreDrops: restoring a snapshot taken on a
// *different* machine (the pool's golden-snapshot path) rewinds memory
// underneath the cache; cached blocks must not survive. Machine A warms a
// block for "movw r2, 1"; after restoring B's snapshot — same layout,
// different program at the same address — execution must follow B's bytes.
func TestBlockCacheForeignRestoreDrops(t *testing.T) {
	pa := asm.New()
	pa.Movw(R2, 1).Hlt()
	a := newTestMachine(t, pa)
	pb := asm.New()
	pb.Movw(R2, 7).Hlt()
	b := newTestMachine(t, pb)

	runToHalt(t, a) // warms A's block at base
	base := a.Phys.Layout().InsecureBase
	before := a.BlockCacheStats()
	if err := a.Restore(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	after := a.BlockCacheStats()
	if after.Resets == before.Resets {
		t.Fatalf("restore did not reset the block cache: %+v -> %+v", before, after)
	}
	a.SetPC(base)
	a.SetCPSR(PSR{Mode: ModeSvc, I: true, F: true})
	runToHalt(t, a)
	if a.Reg(R2) != 7 {
		t.Fatalf("post-restore r2 = %d, want 7 (stale block survived foreign restore)", a.Reg(R2))
	}
}

// TestBlockCacheBudgetMidBlock: exhausting the Run budget inside a cached
// block must freeze the machine at exactly the PC, retirement count and
// cycle total the per-instruction path would produce, and resuming must
// finish identically.
func TestBlockCacheBudgetMidBlock(t *testing.T) {
	build := func() *Machine {
		p := asm.New()
		for i := 0; i < 12; i++ {
			p.AddI(R0, R0, 1)
		}
		p.Hlt()
		return newTestMachine(t, p)
	}
	on, off := build(), build()
	off.EnableBlockCache(false)
	tra, trb := on.Run(5), off.Run(5)
	if tra.Kind != TrapBudget || trb.Kind != TrapBudget {
		t.Fatalf("traps = %v / %v, want budget", tra.Kind, trb.Kind)
	}
	assertSameRun(t, on, off)
	if on.Reg(R0) != 5 {
		t.Fatalf("r0 = %d after 5-instruction budget, want 5", on.Reg(R0))
	}
	// Resume: the frozen mid-block PC must redispatch correctly.
	runToHalt(t, on)
	runToHalt(t, off)
	assertSameRun(t, on, off)
	if on.Reg(R0) != 12 {
		t.Fatalf("r0 = %d, want 12", on.Reg(R0))
	}
}

// TestBlockCacheIRQFallback: while an interrupt injection countdown is
// armed the block path must stand down (the per-instruction loop checks
// delivery before every instruction), so an IRQ scheduled to land mid-would-
// be-block is taken at exactly the same boundary as on the slow path.
func TestBlockCacheIRQFallback(t *testing.T) {
	build := func() *Machine {
		p := asm.New()
		for i := 0; i < 10; i++ {
			p.AddI(R0, R0, 1)
		}
		p.Hlt()
		m := newTestMachine(t, p)
		m.SetCPSR(PSR{Mode: ModeSvc, I: false, F: true}) // IRQs unmasked
		return m
	}
	on, off := build(), build()
	off.EnableBlockCache(false)
	// Warm the block first so the armed countdown must actively suppress a
	// ready cache entry, not just an unfilled one.
	runToHalt(t, on)
	runToHalt(t, off)
	base := on.Phys.Layout().InsecureBase
	for _, m := range []*Machine{on, off} {
		m.SetPC(base)
		m.SetReg(R0, 0)
		m.SetCPSR(PSR{Mode: ModeSvc, I: false, F: true})
		m.ScheduleIRQ(4)
	}
	tra, trb := on.Run(100), off.Run(100)
	if tra.Kind != TrapIRQ || trb.Kind != TrapIRQ {
		t.Fatalf("traps = %v / %v, want irq", tra.Kind, trb.Kind)
	}
	assertSameRun(t, on, off)
}

// TestBlockCacheToggle: disabling stops all accounting; re-enabling starts
// from an empty cache (resets counted).
func TestBlockCacheToggle(t *testing.T) {
	p := asm.New()
	p.Movw(R0, 1).Hlt()
	m := newTestMachine(t, p)
	base := m.Phys.Layout().InsecureBase
	m.EnableBlockCache(false)
	runToHalt(t, m)
	if s := m.BlockCacheStats(); s.Enabled || s.Hits != 0 || s.Misses != 0 || s.Fills != 0 {
		t.Fatalf("disabled block cache accumulated work: %+v", s)
	}
	m.EnableBlockCache(true)
	m.SetPC(base)
	m.SetCPSR(PSR{Mode: ModeSvc, I: true, F: true})
	runToHalt(t, m)
	s := m.BlockCacheStats()
	if !s.Enabled || s.Fills == 0 || s.Resets < 2 {
		t.Fatalf("re-enabled block cache stats: %+v", s)
	}
}
