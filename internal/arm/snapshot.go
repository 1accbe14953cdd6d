package arm

import (
	"errors"

	"repro/internal/mem"
	"repro/internal/mmu"
)

// Snapshot captures the complete simulated-machine state: register file,
// system registers, memory, TLB, RNG, cycle counter, and interrupt
// schedule. Restoring a snapshot resumes the simulation bit-identically —
// useful for forking paired executions mid-run (the bisimulation harness),
// rewinding failed experiments, and reproducing bugs.
type Snapshot struct {
	r     [13]uint32
	sp    [numModes]uint32
	lr    [numModes]uint32
	spsr  [numModes]PSR
	pc    uint32
	cpsr  PSR
	scrNS bool
	ttbr0 [2]uint32
	ttbr1 uint32
	vbar  uint32
	mvbar uint32

	ptPages map[uint32]bool

	irqCountdown int64
	irqPending   bool
	fiqPending   bool
	retired      uint64
	insnClass    [NumInsnClasses]uint64

	memory *mem.MemSnapshot
	rng    [4]uint64
	cycles uint64

	tlbConsistent bool
	// The TLB's cached translations are architecturally restorable as
	// empty (a flushed TLB is always a legal TLB state — it only caches);
	// consistency tracking must be preserved, entries need not be.
}

// Snapshot captures the machine.
func (m *Machine) Snapshot() *Snapshot { return m.capture(m.Phys.Snapshot()) }

// Rebase captures the machine like Snapshot, but reuses prev's memory
// image: when prev is the memory's current dirty-tracking baseline (the
// last snapshot taken or restored), only the pages written since are
// copied into it (mem.Physical.Fold), so the cost is O(dirty pages)
// rather than O(RAM). Otherwise it takes a full Snapshot. Registers, RNG,
// cycles, page-table pages and the TLB flag are re-captured either way.
//
// prev is consumed on both paths: a fold hands its memory image to the
// returned snapshot, so prev is emptied and Restore(prev) fails with "arm:
// nil snapshot" instead of putting old registers over new memory.
func (m *Machine) Rebase(prev *Snapshot) *Snapshot {
	var memory *mem.MemSnapshot
	if prev != nil {
		memory, prev.memory = prev.memory, nil
	}
	if !m.Phys.Fold(memory) {
		return m.Snapshot()
	}
	return m.capture(memory)
}

// capture records everything but memory around the given memory image.
func (m *Machine) capture(memory *mem.MemSnapshot) *Snapshot {
	s := &Snapshot{
		r:             m.r,
		sp:            m.sp,
		lr:            m.lr,
		spsr:          m.spsr,
		pc:            m.pc,
		cpsr:          m.cpsr,
		scrNS:         m.scrNS,
		ttbr0:         m.ttbr0,
		ttbr1:         m.ttbr1,
		vbar:          m.vbar,
		mvbar:         m.mvbar,
		irqCountdown:  m.irqCountdown,
		irqPending:    m.irqPending,
		fiqPending:    m.fiqPending,
		retired:       m.retired,
		insnClass:     m.insnClass,
		memory:        memory,
		rng:           m.RNG.State(),
		cycles:        m.Cyc.Total(),
		tlbConsistent: m.TLB.Consistent(),
		ptPages:       make(map[uint32]bool, len(m.ptPages)),
	}
	for k, v := range m.ptPages {
		s.ptPages[k] = v
	}
	return s
}

// Restore rewinds the machine to the snapshot. The snapshot must come from
// a machine with the same memory layout.
func (m *Machine) Restore(s *Snapshot) error {
	if s == nil || s.memory == nil {
		return errors.New("arm: nil snapshot")
	}
	if err := m.Phys.Restore(s.memory); err != nil {
		return err
	}
	m.r = s.r
	m.sp = s.sp
	m.lr = s.lr
	m.spsr = s.spsr
	m.pc = s.pc
	m.cpsr = s.cpsr
	m.scrNS = s.scrNS
	m.ttbr0 = s.ttbr0
	m.ttbr1 = s.ttbr1
	m.vbar = s.vbar
	m.mvbar = s.mvbar
	m.irqCountdown = s.irqCountdown
	m.irqPending = s.irqPending
	m.fiqPending = s.fiqPending
	m.retired = s.retired
	m.insnClass = s.insnClass
	m.ptPages = make(map[uint32]bool, len(s.ptPages))
	for k, v := range s.ptPages {
		m.ptPages[k] = v
	}
	m.RNG.SetState(s.rng)
	m.Cyc.Reset()
	m.Cyc.Charge(s.cycles)
	// An empty TLB is always sound; restore only the consistency flag.
	m.TLB = mmu.NewTLB()
	if !s.tlbConsistent {
		m.TLB.MarkInconsistent()
	}
	// Strict invalidation on snapshot restore: the block cache may hold
	// instructions from the abandoned timeline. (Delta restore also bumps
	// restored pages' versions, but dropping everything here keeps the
	// invalidation argument local.)
	m.bc.reset()
	return nil
}
