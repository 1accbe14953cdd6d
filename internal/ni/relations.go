// Package ni implements Komodo's security argument (§6): the observational
// equivalence relations of Definitions 1 and 2, the adversary relation
// ≈adv, the declassification rules (§6.2), and a bisimulation harness that
// runs paired executions to check the noninterference theorem (Theorem 6.1)
// over both the functional specification and the concrete monitor.
//
// "We formally prove that the Komodo specification... protects the
// confidentiality and integrity of enclave code and data from other
// software on the machine." Our runtime analogue: for states related by
// ≈L, identical adversary actions must yield states related by ≈L, with
// equal adversary-visible outputs.
package ni

import (
	"fmt"

	"repro/internal/arm"
	"repro/internal/mem"
	"repro/internal/pagedb"
	"repro/internal/sha2"
)

// WeakEqual is Definition 1 (=enc): pages outside the observer's address
// space look the same if they have the same type (data/spare), the same
// entered flag (threads), or are exactly equal (page tables and address
// spaces). "An enclave cannot observe data page contents or thread context
// unless those pages belong to it."
func WeakEqual(e1, e2 *pagedb.Entry) bool {
	if e1.Type != e2.Type {
		return false
	}
	switch e1.Type {
	case pagedb.TypeData, pagedb.TypeSpare, pagedb.TypeFree:
		return true
	case pagedb.TypeThread:
		return e1.Thread.Entered == e2.Thread.Entered
	case pagedb.TypeL1PT, pagedb.TypeL2PT, pagedb.TypeAddrspace:
		return pagedb.EntriesEqual(e1, e2)
	}
	return false
}

// ObsEquivalent is Definition 2 (≈enc): d1 and d2 are observationally
// equivalent from enclave enc's perspective iff the free sets agree, enc's
// page set agrees, pages outside enc are weakly equal, and pages inside
// enc are exactly equal. Returns nil, or an error naming the first
// violation (useful in failing tests).
func ObsEquivalent(d1, d2 *pagedb.DB, enc pagedb.PageNr) error {
	if d1.NPages != d2.NPages {
		return fmt.Errorf("ni: page counts differ")
	}
	for i := range d1.Pages {
		n := pagedb.PageNr(i)
		e1, e2 := d1.Get(n), d2.Get(n)
		// F(d1) = F(d2): the free sets agree.
		if (e1.Type == pagedb.TypeFree) != (e2.Type == pagedb.TypeFree) {
			return fmt.Errorf("ni: page %d free in one state only", n)
		}
		in1 := ownedByOrIs(d1, n, enc)
		in2 := ownedByOrIs(d2, n, enc)
		// A_enc(d1) = A_enc(d2): the observer's page set agrees.
		if in1 != in2 {
			return fmt.Errorf("ni: page %d belongs to enclave %d in one state only", n, enc)
		}
		if in1 {
			if !pagedb.EntriesEqual(e1, e2) {
				return fmt.Errorf("ni: observer page %d differs", n)
			}
		} else if !WeakEqual(e1, e2) {
			return fmt.Errorf("ni: outside page %d not weakly equal (%v vs %v)", n, e1.Type, e2.Type)
		}
	}
	return nil
}

func ownedByOrIs(d *pagedb.DB, n, enc pagedb.PageNr) bool {
	e := d.Get(n)
	if e.Type == pagedb.TypeFree {
		return false
	}
	if n == enc && e.Type == pagedb.TypeAddrspace {
		return true
	}
	return e.Type != pagedb.TypeAddrspace && e.Owner == enc
}

// MachineObs is the machine state the OS adversary can observe directly:
// "the general-purpose registers, the banked registers (excluding monitor
// mode), and the insecure memory" (§6.1).
type MachineObs struct {
	R              [13]uint32
	Banked         map[arm.Mode][2]uint32 // SP, LR for each non-monitor mode
	PSRMode        arm.Mode
	InsecureDigest [32]byte
}

// ObserveMachine captures the adversary-visible machine state. Insecure
// memory is captured as a digest to keep paired comparisons cheap.
func ObserveMachine(m *arm.Machine) MachineObs {
	obs := MachineObs{Banked: make(map[arm.Mode][2]uint32), PSRMode: m.CPSR().Mode}
	for i := range obs.R {
		obs.R[i] = m.Reg(arm.Reg(i))
	}
	for _, md := range []arm.Mode{arm.ModeUsr, arm.ModeSvc, arm.ModeAbt, arm.ModeUnd, arm.ModeIrq, arm.ModeFiq} {
		obs.Banked[md] = [2]uint32{m.RegBanked(md, arm.SP), m.RegBanked(md, arm.LR)}
	}
	obs.InsecureDigest = insecureDigest(m)
	return obs
}

func insecureDigest(m *arm.Machine) [32]byte {
	l := m.Phys.Layout()
	h := sha2.New()
	var buf [4]byte
	for off := uint32(0); off < l.InsecureSize; off += 4 {
		v, err := m.Phys.Read(l.InsecureBase+off, mem.Normal)
		if err != nil {
			panic(err)
		}
		buf[0], buf[1], buf[2], buf[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		h.Write(buf[:])
	}
	return h.Sum()
}

// MachineObsEqual compares two adversary views.
func MachineObsEqual(a, b MachineObs) error {
	if a.R != b.R {
		return fmt.Errorf("ni: general-purpose registers differ")
	}
	if a.PSRMode != b.PSRMode {
		return fmt.Errorf("ni: modes differ")
	}
	for md, v := range a.Banked {
		if b.Banked[md] != v {
			return fmt.Errorf("ni: banked registers of mode %v differ", md)
		}
	}
	if a.InsecureDigest != b.InsecureDigest {
		return fmt.Errorf("ni: insecure memory differs")
	}
	return nil
}

// AdvEquivalent is ≈adv (§6.1): the OS adversary colluding with enclave
// enc. States are related iff they are ≈enc related for the malicious
// enclave and the adversary-visible machine state is equal.
func AdvEquivalent(m1 MachineObs, d1 *pagedb.DB, m2 MachineObs, d2 *pagedb.DB, enc pagedb.PageNr) error {
	if err := ObsEquivalent(d1, d2, enc); err != nil {
		return err
	}
	return MachineObsEqual(m1, m2)
}
