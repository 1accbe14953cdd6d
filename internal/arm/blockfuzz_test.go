package arm_test

import (
	"testing"

	. "repro/internal/arm"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/rng"
)

// FuzzBlockCache runs a short fuzzer-chosen program on two machines — block
// cache on vs. everything off — interleaving cache-hostile events between
// small Run chunks: stores into the code page (version bumps), TLB flushes,
// TTBR0 reloads (epoch staleness without translation change), and snapshot
// Restore. At every boundary the trap kind, registers, flags, PC, cycle
// total, retirement counters and TLB telemetry must be bit-identical.
// Seeds reuse the instruction encodings of the FuzzDecodeExecute corpus.
// Fuzz with `go test -fuzz FuzzBlockCache ./internal/arm`.
func FuzzBlockCache(f *testing.F) {
	enc := func(i Instr) uint32 {
		w, err := Encode(i)
		if err != nil {
			f.Fatalf("seed %+v does not encode: %v", i, err)
		}
		return w
	}
	nop := enc(Instr{Op: OpNOP})
	addi := enc(Instr{Op: OpADDI, Rd: R0, Rn: R0, Imm: 1})
	// Straight line with an early exit: SVC mid-program.
	f.Add(addi, addi, addi, enc(Instr{Op: OpSVC}), addi, addi, nop, nop,
		[]byte{0, 0, 0}, uint8(0))
	// Tight loop over the whole window: B back to start.
	f.Add(addi, enc(Instr{Op: OpCMPI, Rn: R0, Imm: 4095}),
		enc(Instr{Op: OpB, Cond: CondNE, Off: -3}), nop, addi, addi, nop, nop,
		[]byte{2, 1, 2, 4, 1}, uint8(0))
	// Self-modifying: store into the code window via R9, then loop.
	f.Add(enc(Instr{Op: OpSTR, Rd: R1, Rn: R9, Imm: 20}),
		enc(Instr{Op: OpB, Cond: CondAL, Off: -2}), addi, addi, addi, addi, nop, nop,
		[]byte{1, 17, 33, 2}, uint8(1))
	// Corpus encodings from FuzzDecodeExecute: system ops, wide moves,
	// undefined words, register 15.
	f.Add(enc(Instr{Op: OpWRSYS, Rn: R3, Imm: SysTLBIALL}),
		enc(Instr{Op: OpMRS, Rd: R4, Imm: 0}),
		enc(Instr{Op: OpMOVW, Rd: R10, Imm: 0xbeef}),
		enc(Instr{Op: OpMOVT, Rd: R10, Imm: 0xdead}),
		uint32(OpADD)<<24|0xf00000, // register 15: undef
		uint32(0xffff_ffff),        // undefined opcode
		enc(Instr{Op: OpSMC}),
		enc(Instr{Op: OpMOVSPCLR}),
		[]byte{2, 3, 1, 4, 0, 65, 129}, uint8(0))
	// Loads/stores around the data window, user mode.
	f.Add(enc(Instr{Op: OpLDR, Rd: R1, Rn: R8, Imm: 0}),
		enc(Instr{Op: OpSTR, Rd: R1, Rn: R8, Imm: 4}),
		enc(Instr{Op: OpLDRR, Rd: R2, Rn: R8, Rm: R0}),
		enc(Instr{Op: OpSTRR, Rd: R2, Rn: R8, Rm: R0}),
		enc(Instr{Op: OpB, Cond: CondAL, Off: -5}), nop, nop, nop,
		[]byte{4, 2, 16, 3}, uint8(2))

	f.Fuzz(func(t *testing.T, w0, w1, w2, w3, w4, w5, w6, w7 uint32, events []byte, modeSel uint8) {
		words := []uint32{w0, w1, w2, w3, w4, w5, w6, w7}
		enclave := modeSel%3 == 2
		build := func(cached bool) (m *Machine, codeBase uint32, world mem.World) {
			phys, err := mem.NewPhysical(mem.DefaultLayout())
			if err != nil {
				t.Skip()
			}
			m = NewMachine(phys, rng.New(11))
			if enclave {
				// Secure user mode, translated: code+data pages mapped RWX
				// so fetches, loads and self-modifying stores all stay on
				// the TLB path.
				l1 := phys.SecurePageBase(0)
				l2 := phys.SecurePageBase(1)
				code := phys.SecurePageBase(2)
				const va = uint32(0)
				phys.Write(l1+uint32(mmu.L1Index(va))*4, l2|mmu.PteValid, mem.Secure)
				phys.Write(l2+uint32(mmu.L2Index(va))*4,
					mmu.PTE(code, mmu.Perms{Exec: true, Write: true}), mem.Secure)
				for i, w := range words {
					phys.Write(code+uint32(i)*4, w, mem.Secure)
				}
				m.SetSCRNS(false)
				m.SetTTBR0(mem.Secure, l1)
				m.TLB.Flush()
				m.SetCPSR(PSR{Mode: ModeUsr, I: false})
				m.SetPC(va)
				m.SetReg(R8, va+64)
				m.SetReg(R9, va)
				codeBase, world = code, mem.Secure
			} else {
				base := phys.Layout().InsecureBase
				for i, w := range words {
					phys.Write(base+uint32(i)*4, w, mem.Normal)
				}
				hlt, _ := Encode(Instr{Op: OpHLT})
				phys.Write(base+uint32(len(words))*4, hlt, mem.Normal)
				m.SetSCRNS(true)
				mode := ModeSvc
				if modeSel%3 == 1 {
					mode = ModeUsr
				}
				m.SetCPSR(PSR{Mode: mode, I: true, F: true})
				m.SetPC(base)
				m.SetReg(R8, base+64)
				m.SetReg(R9, base)
				codeBase, world = base, mem.Normal
			}
			if !cached {
				m.EnableBlockCache(false)
			}
			return m, codeBase, world
		}
		a, aCode, world := build(true)
		b, bCode, _ := build(false)
		snapA, snapB := a.Snapshot(), b.Snapshot()

		compare := func(stage int) {
			t.Helper()
			for r := R0; r <= LR; r++ {
				if x, y := a.Reg(r), b.Reg(r); x != y {
					t.Fatalf("stage %d: r%d cached %#x, uncached %#x", stage, r, x, y)
				}
			}
			if a.PC() != b.PC() {
				t.Fatalf("stage %d: PC cached %#x, uncached %#x", stage, a.PC(), b.PC())
			}
			if a.CPSR() != b.CPSR() {
				t.Fatalf("stage %d: CPSR cached %+v, uncached %+v", stage, a.CPSR(), b.CPSR())
			}
			if a.Retired() != b.Retired() {
				t.Fatalf("stage %d: retired cached %d, uncached %d", stage, a.Retired(), b.Retired())
			}
			if a.Cyc.Total() != b.Cyc.Total() {
				t.Fatalf("stage %d: cycles cached %d, uncached %d", stage, a.Cyc.Total(), b.Cyc.Total())
			}
			if ca, cb := a.TLB.Counters(), b.TLB.Counters(); ca != cb {
				t.Fatalf("stage %d: TLB cached %+v, uncached %+v", stage, ca, cb)
			}
			for i := range words {
				x, _ := a.Phys.Read(aCode+uint32(i)*4, world)
				y, _ := b.Phys.Read(bCode+uint32(i)*4, world)
				if x != y {
					t.Fatalf("stage %d: code[%d] cached %#x, uncached %#x", stage, i, x, y)
				}
			}
		}

		if len(events) > 24 {
			events = events[:24]
		}
		for k, ev := range events {
			ta, tb := a.Run(3), b.Run(3)
			if ta.Kind != tb.Kind {
				t.Fatalf("event %d: trap cached %v, uncached %v (%v / %v)",
					k, ta.Kind, tb.Kind, ta.FaultErr, tb.FaultErr)
			}
			compare(k)
			// Apply the same cache-hostile event to both machines.
			switch ev % 6 {
			case 0: // nothing
			case 1: // store a derived word into the code window
				idx := uint32(ev>>4) % uint32(len(words))
				w := uint32(ev)*0x9E3779B1 + uint32(k)
				a.Phys.Write(aCode+idx*4, w, world)
				b.Phys.Write(bCode+idx*4, w, world)
			case 2:
				a.TLB.Flush()
				b.TLB.Flush()
			case 3: // reload the active TTBR0 with its own value: epoch bump
				a.SetTTBR0(world, a.TTBR0(world))
				b.SetTTBR0(world, b.TTBR0(world))
			case 4:
				if err := a.Restore(snapA); err != nil {
					t.Fatalf("restore cached: %v", err)
				}
				if err := b.Restore(snapB); err != nil {
					t.Fatalf("restore uncached: %v", err)
				}
			case 5: // re-steer both into the code window
				off := 4 * (uint32(ev>>4) % uint32(len(words)))
				for _, m := range []*Machine{a, b} {
					m.SetPC(m.Reg(R9) + off)
				}
			}
		}
		ta, tb := a.Run(64), b.Run(64)
		if ta.Kind != tb.Kind {
			t.Fatalf("final: trap cached %v, uncached %v", ta.Kind, tb.Kind)
		}
		compare(len(events))
	})
}
