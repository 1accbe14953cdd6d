package pagedb

import (
	"testing"

	"repro/internal/mmu"
)

// buildValidDB constructs a small, fully valid PageDB:
//
//	page 0: addrspace (refcount 4)
//	page 1: L1PT, slot 0 -> page 2
//	page 2: L2PT, entry 0 -> data page 3, entry 1 -> insecure
//	page 3: data
//	page 4: thread
//	page 5: spare owned by addrspace 0
//	pages 6..: free
func buildValidDB(t *testing.T) *DB {
	t.Helper()
	d := New(8)
	d.Pages[0] = Entry{Type: TypeAddrspace, Owner: 0, AS: &Addrspace{
		State: ASInit, L1PT: 1, L1PTSet: true, RefCount: 5,
	}}
	l1 := &L1PT{}
	l1.Present[0] = true
	l1.L2[0] = 2
	d.Pages[1] = Entry{Type: TypeL1PT, Owner: 0, L1: l1}
	l2 := &L2PT{}
	l2.Entries[0] = L2Entry{Valid: true, Secure: true, Page: 3, Write: true}
	l2.Entries[1] = L2Entry{Valid: true, Secure: false, InsecureAddr: 0x8000_0000, Write: true}
	d.Pages[2] = Entry{Type: TypeL2PT, Owner: 0, L2: l2}
	d.Pages[3] = Entry{Type: TypeData, Owner: 0, Data: &Data{}}
	d.Pages[4] = Entry{Type: TypeThread, Owner: 0, Thread: &Thread{EntryPoint: 0x1000}}
	d.Pages[5] = Entry{Type: TypeSpare, Owner: 0}
	if err := d.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return d
}

func TestValidateAcceptsValidDB(t *testing.T) {
	buildValidDB(t)
}

func TestValidateEmptyDB(t *testing.T) {
	if err := New(16).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadRefcount(t *testing.T) {
	d := buildValidDB(t)
	d.Pages[0].AS.RefCount = 2
	if err := d.Validate(); err == nil {
		t.Fatal("bad refcount not caught")
	}
}

func TestValidateCatchesForeignOwner(t *testing.T) {
	d := buildValidDB(t)
	d.Pages[3].Owner = 3 // data page owned by itself (not an addrspace)
	if err := d.Validate(); err == nil {
		t.Fatal("non-addrspace owner not caught")
	}
}

func TestValidateCatchesCrossEnclaveMapping(t *testing.T) {
	d := buildValidDB(t)
	// Second enclave with a data page...
	d = grow(d, 12)
	d.Pages[8] = Entry{Type: TypeAddrspace, Owner: 8, AS: &Addrspace{State: ASInit, RefCount: 1}}
	d.Pages[9] = Entry{Type: TypeData, Owner: 8, Data: &Data{}}
	if err := d.Validate(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	// ...mapped from the first enclave's L2: a cross-enclave double map.
	d.Pages[2].L2.Entries[5] = L2Entry{Valid: true, Secure: true, Page: 9}
	if err := d.Validate(); err == nil {
		t.Fatal("cross-enclave mapping not caught")
	}
}

func grow(d *DB, n int) *DB {
	nd := New(n)
	copy(nd.Pages, d.Pages)
	return nd
}

func TestValidateCatchesMappedNonData(t *testing.T) {
	d := buildValidDB(t)
	d.Pages[2].L2.Entries[7] = L2Entry{Valid: true, Secure: true, Page: 4} // thread page mapped
	if err := d.Validate(); err == nil {
		t.Fatal("leaf-mapped thread page not caught")
	}
}

func TestValidateCatchesDanglingL1(t *testing.T) {
	d := buildValidDB(t)
	d.Pages[1].L1.Present[9] = true
	d.Pages[1].L1.L2[9] = 7 // free page
	if err := d.Validate(); err == nil {
		t.Fatal("L1 slot pointing at free page not caught")
	}
}

func TestValidateCatchesSharedL2(t *testing.T) {
	d := buildValidDB(t)
	d.Pages[1].L1.Present[3] = true
	d.Pages[1].L1.L2[3] = 2 // same L2 in two slots
	if err := d.Validate(); err == nil {
		t.Fatal("shared L2 table not caught")
	}
}

func TestValidateCatchesEnteredThreadInInitEnclave(t *testing.T) {
	d := buildValidDB(t)
	d.Pages[4].Thread.Entered = true // addrspace still ASInit
	if err := d.Validate(); err == nil {
		t.Fatal("entered thread in non-final enclave not caught")
	}
}

func TestValidateCatchesMalformedPayload(t *testing.T) {
	d := buildValidDB(t)
	d.Pages[3].Thread = &Thread{} // data page with a thread payload too
	if err := d.Validate(); err == nil {
		t.Fatal("malformed payload not caught")
	}
}

func TestValidateCatchesUnalignedInsecureAddr(t *testing.T) {
	d := buildValidDB(t)
	d.Pages[2].L2.Entries[2] = L2Entry{Valid: true, InsecureAddr: 0x8000_0004}
	if err := d.Validate(); err == nil {
		t.Fatal("unaligned insecure mapping not caught")
	}
}

func TestValidateCatchesAddrspaceOwnedByOther(t *testing.T) {
	d := buildValidDB(t)
	d.Pages[0].Owner = 3
	if err := d.Validate(); err == nil {
		t.Fatal("addrspace with non-self owner not caught")
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := buildValidDB(t)
	d.Pages[3].Data.Contents[17] = 0xaa
	c := d.Clone()
	if !d.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Pages[3].Data.Contents[17] = 0xbb
	if d.Pages[3].Data.Contents[17] != 0xaa {
		t.Fatal("clone shares data payload")
	}
	c.Pages[0].AS.RefCount++
	if d.Pages[0].AS.RefCount != 5 {
		t.Fatal("clone shares addrspace payload")
	}
	// The running measurement is copied by value too: extending the
	// clone's must leave the original's digest alone.
	before := d.Pages[0].AS.Measurement.Sum()
	c.Pages[0].AS.Measurement.WriteWords([]uint32{1, 2, 3})
	if d.Pages[0].AS.Measurement.Sum() != before {
		t.Fatal("clone shares running measurement")
	}
	if d.Equal(c) {
		t.Fatal("Equal missed divergence")
	}
}

func TestEqualComparesMeasurement(t *testing.T) {
	d := buildValidDB(t)
	c := d.Clone()
	c.Pages[0].AS.Measurement.WriteWords([]uint32{1, 2, 3})
	if d.Equal(c) {
		t.Fatal("Equal ignored measurement state")
	}
}

func TestOwnedBy(t *testing.T) {
	d := buildValidDB(t)
	owned := d.OwnedBy(0)
	if len(owned) != 5 {
		t.Fatalf("OwnedBy = %v", owned)
	}
}

func TestLookupMapping(t *testing.T) {
	d := buildValidDB(t)
	pte, l2pg, idx := d.LookupMapping(0, 0x0000_0000)
	if pte == nil || l2pg != 2 || idx != 0 || !pte.Secure || pte.Page != 3 {
		t.Fatalf("LookupMapping(0,0) = %+v, l2=%d idx=%d", pte, l2pg, idx)
	}
	pte, _, _ = d.LookupMapping(0, 0x1000)
	if pte == nil || pte.Secure || pte.InsecureAddr != 0x8000_0000 {
		t.Fatalf("insecure mapping lookup = %+v", pte)
	}
	if pte, _, _ := d.LookupMapping(0, 0x2000); pte != nil {
		t.Fatal("lookup of unmapped va returned entry")
	}
	if pte, _, _ := d.LookupMapping(0, uint32(5)<<22); pte != nil {
		t.Fatal("lookup without L2 table returned entry")
	}
	if pte, _, _ := d.LookupMapping(3, 0); pte != nil {
		t.Fatal("lookup on non-addrspace returned entry")
	}
}

func TestL2ForVA(t *testing.T) {
	d := buildValidDB(t)
	if l2, ok := d.L2ForVA(0, 0x3000); !ok || l2 != 2 {
		t.Fatalf("L2ForVA = %d, %v", l2, ok)
	}
	if _, ok := d.L2ForVA(0, uint32(mmu.L1Span)); ok {
		t.Fatal("L2ForVA for empty slot succeeded")
	}
}

func TestIsFreeAndFree(t *testing.T) {
	d := buildValidDB(t)
	if d.IsFree(3) {
		t.Fatal("allocated page reported free")
	}
	if !d.IsFree(7) {
		t.Fatal("free page not reported free")
	}
	if d.IsFree(PageNr(100)) {
		t.Fatal("out-of-range page reported free")
	}
	d.Free(5)
	d.Pages[0].AS.RefCount--
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}
