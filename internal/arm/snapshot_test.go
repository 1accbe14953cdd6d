package arm_test

import (
	"testing"

	. "repro/internal/arm"
	"repro/internal/asm"
	"repro/internal/mem"
)

func TestSnapshotRestoreBitIdentical(t *testing.T) {
	p := asm.New()
	p.Movw(R0, 0).
		Movw(R4, 0).
		Label("loop").
		AddI(R0, R0, 1).
		Mul(R4, R0, R0).
		MovImm32(R6, 0x8000_2000).
		LslI(R5, R0, 2).
		StrR(R4, R6, R5). // scatter stores, word-aligned
		CmpI(R0, 200).
		Blt("loop").
		RdSys(R7, SysRNG). // consume entropy too
		Hlt()
	m := newTestMachine(t, p)
	m.SetSCRNS(false) // secure svc so RNG read is legal

	// Run halfway, snapshot, then run to completion twice from the
	// snapshot: the two continuations must agree on everything.
	if tr := m.Run(300); tr.Kind != TrapBudget {
		t.Fatalf("midpoint: %v", tr.Kind)
	}
	snap := m.Snapshot()

	finish := func() (regs [13]uint32, retired, cyc uint64, memDigest uint32) {
		if err := m.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if tr := m.Run(100000); tr.Kind != TrapHalt {
			t.Fatalf("finish: %v", tr.Kind)
		}
		for i := range regs {
			regs[i] = m.Reg(Reg(i))
		}
		base := m.Phys.Layout().InsecureBase
		for off := uint32(0); off < 0x4000; off += 4 {
			v, _ := m.Phys.Read(base+off, mem.Secure)
			memDigest = memDigest*31 + v
		}
		return regs, m.Retired(), m.Cyc.Total(), memDigest
	}
	r1, ret1, cyc1, dig1 := finish()
	r2, ret2, cyc2, dig2 := finish()
	if r1 != r2 {
		t.Fatal("registers diverged across restore")
	}
	if ret1 != ret2 || cyc1 != cyc2 {
		t.Fatalf("counters diverged: retired %d/%d cycles %d/%d", ret1, ret2, cyc1, cyc2)
	}
	if dig1 != dig2 {
		t.Fatal("memory diverged across restore")
	}
	// The RNG stream was rewound too (R7 holds the drawn word).
	if r1[7] == 0 {
		t.Fatal("RNG word not captured")
	}
}

func TestSnapshotIsolatedFromLiveMachine(t *testing.T) {
	m := newTestMachine(t, asm.New().Hlt())
	base := m.Phys.Layout().InsecureBase
	m.Phys.Write(base+0x100, 0xaaaa, mem.Normal)
	snap := m.Snapshot()
	// Mutate after snapshotting.
	m.Phys.Write(base+0x100, 0xbbbb, mem.Normal)
	m.SetReg(R3, 77)
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Phys.Read(base+0x100, mem.Normal); v != 0xaaaa {
		t.Fatalf("memory not rewound: %#x", v)
	}
	if m.Reg(R3) != 0 {
		t.Fatalf("register not rewound: %d", m.Reg(R3))
	}
}

func TestRestoreNilSnapshot(t *testing.T) {
	m := newTestMachine(t, asm.New().Hlt())
	if err := m.Restore(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

// TestRebaseConsumesPrev: Rebase folds the dirty pages into prev's memory
// image, so prev must stop being restorable — restoring it would put old
// registers over the new memory. The rebased snapshot restores the state
// at the rebase, memory and registers alike, and Rebase still works (by a
// full Snapshot) when prev is no longer the memory's baseline.
func TestRebaseConsumesPrev(t *testing.T) {
	m := newTestMachine(t, asm.New().Hlt())
	base := m.Phys.Layout().InsecureBase
	m.Phys.Write(base+0x100, 0xaaaa, mem.Normal)
	old := m.Snapshot()

	m.Phys.Write(base+0x100, 0xbbbb, mem.Normal)
	m.SetReg(R3, 77)
	snapsBefore := m.Phys.RestoreStats().Snapshots
	cur := m.Rebase(old)
	if got := m.Phys.RestoreStats().Snapshots - snapsBefore; got != 1 {
		t.Fatalf("rebase counted %d snapshots, want 1", got)
	}
	if err := m.Restore(old); err == nil || err.Error() != "arm: nil snapshot" {
		t.Fatalf("Restore(prev) after Rebase: err = %v, want arm: nil snapshot", err)
	}

	m.Phys.Write(base+0x100, 0xcccc, mem.Normal)
	m.SetReg(R3, 5)
	if err := m.Restore(cur); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Phys.Read(base+0x100, mem.Normal); v != 0xbbbb {
		t.Fatalf("memory after restoring the rebased snapshot: %#x, want 0xbbbb", v)
	}
	if m.Reg(R3) != 77 {
		t.Fatalf("R3 after restoring the rebased snapshot: %d, want 77", m.Reg(R3))
	}
	if st := m.Phys.RestoreStats(); st.LastPagesCopied != 1 {
		t.Fatalf("restore of the rebased snapshot copied %d pages, want a 1-page delta", st.LastPagesCopied)
	}

	// cur is superseded by a later snapshot: Rebase(cur) cannot fold and
	// must capture everything afresh, still consuming cur.
	m.Snapshot()
	m.Phys.Write(base+0x200, 0xdddd, mem.Normal)
	next := m.Rebase(cur)
	if err := m.Restore(cur); err == nil {
		t.Fatal("Restore(prev) after a fallback Rebase succeeded")
	}
	m.Phys.Write(base+0x200, 0xeeee, mem.Normal)
	if err := m.Restore(next); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Phys.Read(base+0x200, mem.Normal); v != 0xdddd {
		t.Fatalf("memory after restoring a fallback rebase: %#x, want 0xdddd", v)
	}
	if m.Rebase(nil) == nil {
		t.Fatal("Rebase(nil) returned no snapshot")
	}
}
