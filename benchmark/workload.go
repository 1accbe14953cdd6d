package main

import (
	"encoding/hex"
	"fmt"
	"math/rand/v2"
)

// Load shape shared by every workload: a closed loop of two clients (the
// callers are relying parties and notary clients, each waiting for its
// quote or receipt), against backends of two workers each.
const (
	clients           = 2
	workersPerBackend = 2
	// boardSeed boots every board. The workload seed only generates the
	// requests, so the servers see nothing of it but the traffic.
	boardSeed = 42
	// corpusDocs is the shared document corpus mixed-fleet signs draw from.
	corpusDocs = 256
)

// workload is one traffic mix and the server configuration it runs against.
type workload struct {
	name string
	// backends > 1 puts a gateway in front of that many servers.
	backends int
	// fleet gives each server a fresh state dir (real fsync), checkpoints
	// the notary after every sign, turns on adaptive batching, dedup and
	// tenant admission, and makes the workload sign: documents are drawn
	// Zipf(1.2) from the shared corpus.
	fleet bool
	// attestShare is the probability that an operation is an attest.
	attestShare float64
	// driverOps sizes the in-process layer driver's pass of a traced run.
	// The pass replays a fixed prefix of the operation sequence with as
	// many clients as the HTTP phase; its counts repeat exactly for a
	// fixed seed.
	driverOps int
}

// workloads are the benchmark's workloads. attest-volatile is the read
// path; mixed-fleet adds the write path (seal, store, rebase), batching,
// admission and the gateway, and reads that restore onto images the writes
// keep rebasing. An unbatched sign-only workload was left out: a 10 ms
// durable sign's latency follows the host's CPU steal, and on a shared
// 2-vCPU host its median moved by more than the largest allowed bound
// between runs; mixed-fleet's signs pay the same seal, rebase and fsync.
var workloads = []*workload{
	{name: "attest-volatile", backends: 1, attestShare: 1, driverOps: 2000},
	{name: "mixed-fleet", backends: 2, fleet: true, attestShare: 0.5, driverOps: 600},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type opKind int

const (
	opAttest opKind = iota
	opSign
)

func (k opKind) String() string {
	if k == opAttest {
		return "attest"
	}
	return "sign"
}

// op is one generated request.
type op struct {
	kind  opKind
	nonce string // attest
	doc   []byte // sign
	token string // tenant token (fleet workloads)
	// pin, when set, is the leaf nonce the client pins with
	// server.NonceHeader; only the differential test pins nonces.
	pin string
}

// tenantTokens are the fleet workload's admission tokens, all on one tier
// whose limits are far above the offered load.
var tenantTokens = []string{"tenant-a", "tenant-b"}

const (
	tenantTiers = "bench:1000000:1000000:0"
	tenantMap   = "tenant-a=bench,tenant-b=bench"
)

// opSource derives the i-th operation of a workload from the seed alone,
// so the same seed gives the same sequence whichever client draws it.
type opSource struct {
	w      *workload
	seed   uint64
	corpus [][]byte
	pin    bool
}

func newOpSource(w *workload, seed uint64) *opSource {
	s := &opSource{w: w, seed: seed}
	if w.fleet {
		r := rand.New(rand.NewPCG(seed, 1<<63))
		for i := 0; i < corpusDocs; i++ {
			s.corpus = append(s.corpus, randomDoc(r))
		}
	}
	return s
}

// randomDoc is a document of 64–255 bytes.
func randomDoc(r *rand.Rand) []byte {
	doc := make([]byte, 64+r.IntN(192))
	for i := range doc {
		doc[i] = byte(r.Uint32())
	}
	return doc
}

func (s *opSource) op(i uint64) op {
	r := rand.New(rand.NewPCG(s.seed, i))
	var o op
	if r.Float64() < s.w.attestShare {
		var n [16]byte
		for j := range n {
			n[j] = byte(r.Uint32())
		}
		o.kind, o.nonce = opAttest, hex.EncodeToString(n[:])
	} else {
		o.kind = opSign
		o.doc = s.corpus[rand.NewZipf(r, 1.2, 1, corpusDocs-1).Uint64()]
	}
	if s.w.fleet {
		o.token = tenantTokens[r.IntN(len(tenantTokens))]
		if s.pin && o.kind == opSign {
			var n [16]byte
			for j := range n {
				n[j] = byte(r.Uint32())
			}
			o.pin = hex.EncodeToString(n[:])
		}
	}
	return o
}
