package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/gateway"
	"repro/internal/kasm"
	"repro/internal/pool"
	"repro/internal/server"
	"repro/internal/sha2"
	"repro/internal/store"
	"repro/internal/tenant"
	"repro/komodo"
)

// The in-process layer driver replays a workload's operation sequence
// through the public calls the server makes, in the order it makes them,
// and times each call from outside:
//
//	attest: [tenant.Admit] → pool.Get → server.Attest → pool.Release(OK)
//	sign:   tenant.Admit → batch.Aggregator.Submit, whose Sign is
//	        pool.Get → server.BatchSign → System.CheckpointEnclave →
//	        CheckpointStore.Save → Worker.Rebase → pool.Release(Keep)
//
// This mirrors server.withWorker, maybeCheckpoint and signBatchRoot; the
// differential test keeps the two in step. Machine counters are read from
// the System of the worker the driver holds, never from a sampler.

// driverQueueDepth is the server's default QueueDepth, the capacity
// tenant admission sees.
const driverQueueDepth = 64

// call names of the timed layer calls.
const (
	callAdmit   = "tenant.admit"
	callAcquire = "pool.acquire"
	callExec    = "monitor.exec"
	callSeal    = "seal.checkpoint"
	callSave    = "store.save"
	callRebase  = "pool.rebase"
	callRelease = "pool.release"
	callSign    = "batch.sign"
	callWait    = "batch.wait"
)

type driverBackend struct {
	name  string
	pool  *pool.Pool
	ckpts *server.CheckpointStore
	reg   *tenant.Registry
	agg   *batch.Aggregator
	disk  *diskMeter
}

// machineCounters are the simulated-machine counters read around one
// enclave execution, indexed by the ctr* constants.
type machineCounters [numCounters]uint64

const (
	ctrRetired = iota
	ctrCycles
	ctrSMC
	ctrDispatch
	ctrBody
	ctrBlockHits
	ctrBlockMisses
	numCounters
)

func readCounters(sys *komodo.System) machineCounters {
	m := sys.Machine()
	bc := m.BlockCacheStats()
	var c machineCounters
	c[ctrRetired], c[ctrCycles] = m.Retired(), sys.Cycles()
	c[ctrBlockHits], c[ctrBlockMisses] = bc.Hits, bc.Misses
	for _, s := range sys.Telemetry().Snapshot().SMC {
		c[ctrSMC] += s.Count
		c[ctrDispatch] += s.DispatchCycles
		c[ctrBody] += s.BodyCycles
	}
	return c
}

// addDelta adds after − before to c.
func (c *machineCounters) addDelta(before, after machineCounters) {
	for i := range c {
		c[i] += after[i] - before[i]
	}
}

// diskMeter counts, at the OS boundary, the fsyncs a checkpoint store
// issues and the bytes each synced file grew by.
type diskMeter struct {
	mu     sync.Mutex
	fsyncs int
	bytes  int64
	size   map[string]int64
}

func (m *diskMeter) sync(f *os.File) error {
	fi, err := f.Stat()
	m.mu.Lock()
	m.fsyncs++
	if err == nil && fi.Mode().IsRegular() {
		if grow := fi.Size() - m.size[f.Name()]; grow > 0 {
			m.bytes += grow
		}
		m.size[f.Name()] = fi.Size()
	}
	m.mu.Unlock()
	return f.Sync()
}

// signKey identifies one enclave sign of a batch.
type signKey struct {
	backend string
	worker  int
	counter uint32
}

// signRec is one batch Sign call: its time net of counter reads, and the
// counter-read time it contains.
type signRec struct {
	dur, overhead time.Duration
	size          int
}

// driver is one pass of the layer driver over fresh backends.
type driver struct {
	w        *workload
	src      *opSource
	backends []*driverBackend
	owner    int           // backend the gateway ring routes unsharded signs to
	rr       atomic.Uint64 // the gateway's round-robin cursor for stateless calls
	quoteKey [8]uint32
	inflight atomic.Int64

	mu          sync.Mutex
	calls       map[string][]float64 // µs per timed layer call
	attestTimes []float64            // µs per driver attest, net of counter reads
	opTotal     time.Duration
	attributed  time.Duration
	exec        machineCounters
	execTime    time.Duration
	sealCycles  uint64
	seals       int
	signs       map[signKey]*signRec
	receipts    int
	signOps     int
	ops         int
	rejects     int
	outputs     map[uint64]opOutput
	errs        []string
}

func newDriver(w *workload, src *opSource, stateRoot string) (*driver, error) {
	d := &driver{
		w: w, src: src,
		calls:   map[string][]float64{},
		signs:   map[signKey]*signRec{},
		outputs: map[uint64]opOutput{},
	}
	for i := 0; i < w.backends; i++ {
		b, err := d.newBackend(i, stateRoot)
		if err != nil {
			d.close()
			return nil, err
		}
		d.backends = append(d.backends, b)
	}
	if w.backends > 1 {
		// gateway.New's default ring: 64 points per backend; a sign with
		// no shard key goes to the owner of the empty key.
		d.owner = gateway.NewRing(w.backends, 64).Owner("")
	}
	// The client fetches /v1/quotekey first; the server answers it from
	// an idle worker, checked out and returned with Keep.
	b := d.backends[d.statelessBackend()]
	wk, err := b.pool.Get(context.Background())
	if err != nil {
		d.close()
		return nil, err
	}
	d.quoteKey = wk.State().(*server.WorkerState).QuoteKey
	b.pool.Release(context.Background(), wk, pool.Keep)
	return d, nil
}

func (d *driver) newBackend(i int, stateRoot string) (*driverBackend, error) {
	b := &driverBackend{name: fmt.Sprintf("b%d", i), disk: &diskMeter{size: map[string]int64{}}}
	pcfg := pool.Config{Size: workersPerBackend, Boot: server.Blueprint(boardSeed)}
	if d.w.fleet {
		dir, err := os.MkdirTemp(stateRoot, "driver-"+b.name+"-")
		if err != nil {
			return nil, err
		}
		if b.ckpts, err = server.OpenCheckpointStore(dir, store.WithSync(b.disk.sync)); err != nil {
			return nil, err
		}
		pcfg.Provision = server.RestoreProvision(b.ckpts)
		specs, err := tenant.ParseTiers(tenantTiers)
		if err != nil {
			b.close()
			return nil, err
		}
		tokens, err := tenant.ParseTenants(tenantMap)
		if err != nil {
			b.close()
			return nil, err
		}
		if b.reg, err = tenant.NewRegistry(specs, tokens, ""); err != nil {
			b.close()
			return nil, err
		}
		// server.New's batching defaults: 2ms window, 5s sign timeout.
		b.agg = batch.New(batch.Config{
			MaxBatch: 32, MinBatch: 2, Dedup: true,
			Window: 2 * time.Millisecond, SignTimeout: 5 * time.Second,
			Sign: func(ctx context.Context, root [8]uint32) (batch.SignedRoot, error) {
				return d.signRoot(ctx, b, root)
			},
		})
	}
	p, err := pool.New(pcfg)
	if err != nil {
		b.close()
		return nil, err
	}
	b.pool = p
	return b, nil
}

func (b *driverBackend) close() {
	if b.agg != nil {
		b.agg.Close()
	}
	if b.pool != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		b.pool.Close(ctx)
		cancel()
	}
	if b.ckpts != nil {
		b.ckpts.Close()
	}
}

func (d *driver) close() {
	for _, b := range d.backends {
		b.close()
	}
}

// statelessBackend picks the backend for a call the gateway round-robins.
func (d *driver) statelessBackend() int {
	return int(d.rr.Add(1)) % len(d.backends)
}

// run replays operations [0, n) with the given number of concurrent
// clients, each taking the next operation in sequence.
func (d *driver) run(n, nclients int) {
	var next atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < nclients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= uint64(n) {
					return
				}
				if err := d.do(i, d.src.op(i)); err != nil {
					d.mu.Lock()
					if len(d.errs) < 5 {
						d.errs = append(d.errs, fmt.Sprintf("driver op %d: %v", i, err))
					}
					d.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
}

// opTrace accumulates one driver op's timed calls.
type opTrace struct {
	start    time.Time
	calls    []namedDur
	overhead time.Duration // counter reads: benchmark work, not the program's
	exec     machineCounters
	execTime time.Duration
	seal     uint64
	seals    int
}

type namedDur struct {
	name string
	d    time.Duration
}

func (t *opTrace) time(name string, f func()) {
	s := time.Now()
	f()
	t.calls = append(t.calls, namedDur{name, time.Since(s)})
}

// counters reads the held worker's machine counters, charging the read
// to the op's overhead.
func (t *opTrace) counters(sys *komodo.System) machineCounters {
	s := time.Now()
	c := readCounters(sys)
	t.overhead += time.Since(s)
	return c
}

func (d *driver) do(i uint64, o op) error {
	d.inflight.Add(1)
	defer d.inflight.Add(-1)
	t := &opTrace{start: time.Now()}
	var out opOutput
	var err error
	var check func() error
	if o.kind == opAttest {
		out, check, err = d.attest(t, o)
	} else {
		out, check, err = d.batchSign(t, o)
	}
	total := time.Since(t.start) - t.overhead
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.ops++
	if o.kind == opSign {
		d.signOps++
	}
	d.opTotal += total
	var attributed time.Duration
	for _, c := range t.calls {
		d.calls[c.name] = append(d.calls[c.name], us(c.d))
		if c.name != callWait { // a part of batch.submit, counted there
			attributed += c.d
		}
	}
	d.attributed += attributed
	if o.kind == opAttest {
		d.attestTimes = append(d.attestTimes, us(total))
	}
	d.exec.addDelta(machineCounters{}, t.exec)
	d.execTime += t.execTime
	d.sealCycles += t.seal
	d.seals += t.seals
	d.outputs[i] = out
	d.mu.Unlock()
	return check()
}

// admit runs tenant admission when the backend has it.
func (d *driver) admit(t *opTrace, b *driverBackend, o op) (tenant.Decision, error) {
	if b.reg == nil {
		return tenant.Decision{OK: true}, nil
	}
	var dec tenant.Decision
	t.time(callAdmit, func() { dec = b.reg.Admit(o.token, int(d.inflight.Load()), driverQueueDepth) })
	if !dec.OK {
		d.mu.Lock()
		d.rejects++
		d.mu.Unlock()
		return dec, fmt.Errorf("admission refused: %s", dec.Reason)
	}
	return dec, nil
}

// execOn runs one enclave call on the held worker, timing it and reading
// the machine counters around it.
func (t *opTrace) execOn(sys *komodo.System, f func() error) error {
	before := t.counters(sys)
	s := time.Now()
	err := f()
	el := time.Since(s)
	after := t.counters(sys)
	t.calls = append(t.calls, namedDur{callExec, el})
	t.execTime += el
	t.exec.addDelta(before, after)
	return err
}

func (d *driver) attest(t *opTrace, o op) (opOutput, func() error, error) {
	b := d.backends[d.statelessBackend()]
	if _, err := d.admit(t, b, o); err != nil {
		return opOutput{}, nil, err
	}
	ctx := context.Background()
	var wk *pool.Worker
	var err error
	t.time(callAcquire, func() { wk, err = b.pool.Get(ctx) })
	if err != nil {
		return opOutput{}, nil, err
	}
	st := wk.State().(*server.WorkerState)
	data := server.NonceWords([]byte(o.nonce))
	var att server.Attestation
	err = t.execOn(wk.System(), func() (e error) { att, e = server.Attest(ctx, st, data); return })
	outcome := pool.OK
	if err != nil {
		outcome = pool.Fail
	}
	t.time(callRelease, func() { b.pool.Release(ctx, wk, outcome) })
	if err != nil {
		return opOutput{}, nil, err
	}
	out := opOutput{quote: server.EncodeWords(att.Quote)}
	return out, func() error {
		if att.Data != data || !kasm.VerifyQuote(d.quoteKey, att.Measurement, att.Data, att.Quote) {
			return fmt.Errorf("attest: quote for nonce %q does not verify", o.nonce)
		}
		return nil
	}, nil
}

// checkpoint is server.maybeCheckpoint with CheckpointEvery 1: seal the
// notary, append it to the store, rebase the worker onto it.
func (d *driver) checkpoint(t *opTrace, b *driverBackend, wk *pool.Worker, st *server.WorkerState, counter uint32) error {
	var ckpt *komodo.Checkpoint
	var err error
	before := t.counters(wk.System())
	t.time(callSeal, func() { ckpt, err = wk.System().CheckpointEnclave(st.Notary) })
	after := t.counters(wk.System())
	if err != nil {
		return err
	}
	t.seal += after[ctrCycles] - before[ctrCycles]
	t.seals++
	t.time(callSave, func() { err = b.ckpts.Save(wk.ID(), counter, ckpt) })
	if err != nil {
		return err
	}
	t.time(callRebase, wk.Rebase)
	return nil
}

// signRoot is the aggregator's Sign: server.signBatchRoot, timed.
func (d *driver) signRoot(ctx context.Context, b *driverBackend, root [8]uint32) (batch.SignedRoot, error) {
	t := &opTrace{start: time.Now()}
	var wk *pool.Worker
	var err error
	t.time(callAcquire, func() { wk, err = b.pool.Get(ctx) })
	if err != nil {
		return batch.SignedRoot{}, err
	}
	st := wk.State().(*server.WorkerState)
	var n server.Notarisation
	err = t.execOn(wk.System(), func() (e error) { n, e = server.BatchSign(ctx, st, root); return })
	if err == nil {
		err = d.checkpoint(t, b, wk, st, n.Counter)
	}
	if err != nil {
		t.time(callRelease, func() { b.pool.Release(ctx, wk, pool.Fail) })
		return batch.SignedRoot{}, err
	}
	sr := batch.SignedRoot{
		Root: root, Counter: n.Counter, Digest: n.Digest, MAC: n.MAC,
		Worker: wk.ID(), Epoch: wk.Epoch(), Restores: st.Restores,
	}
	t.time(callRelease, func() { b.pool.Release(ctx, wk, pool.Keep) })
	rec := &signRec{dur: time.Since(t.start) - t.overhead, overhead: t.overhead}
	d.mu.Lock()
	for _, c := range t.calls {
		d.calls[c.name] = append(d.calls[c.name], us(c.d))
	}
	d.calls[callSign] = append(d.calls[callSign], us(rec.dur))
	d.exec.addDelta(machineCounters{}, t.exec)
	d.execTime += t.execTime
	d.sealCycles += t.seal
	d.seals += t.seals
	d.signs[signKey{b.name, sr.Worker, sr.Counter}] = rec
	d.mu.Unlock()
	return sr, nil
}

func (d *driver) batchSign(t *opTrace, o op) (opOutput, func() error, error) {
	b := d.backends[d.owner]
	dec, err := d.admit(t, b, o)
	if err != nil {
		return opOutput{}, nil, err
	}
	h := sha2.New()
	h.Write(o.doc)
	req := batch.Request{DocDigest: h.SumWords(), Tenant: dec.Tenant, Coalescable: o.pin == ""}
	if o.pin != "" {
		if _, err := hex.Decode(req.Nonce[:], []byte(o.pin)); err != nil {
			return opOutput{}, nil, err
		}
	} else if _, err := rand.Read(req.Nonce[:]); err != nil {
		return opOutput{}, nil, err
	}
	var rc batch.Receipt
	s := time.Now()
	rc, err = b.agg.Submit(context.Background(), req)
	submit := time.Since(s)
	if err != nil {
		return opOutput{}, nil, err
	}
	d.mu.Lock()
	sr := d.signs[signKey{b.name, rc.Worker, rc.Counter}]
	if sr != nil {
		d.receipts++
		if sr.size == 0 {
			sr.size = rc.BatchSize
		}
	}
	d.mu.Unlock()
	if sr == nil {
		return opOutput{}, nil, fmt.Errorf("receipt for counter %d has no batch sign", rc.Counter)
	}
	// The Sign call's counter reads happened inside Submit.
	t.overhead += sr.overhead
	t.calls = append(t.calls,
		namedDur{"batch.submit", submit - sr.overhead},
		namedDur{callWait, submit - sr.overhead - sr.dur})
	out := opOutput{counter: rc.Counter, digest: server.EncodeWords(rc.Digest)}
	return out, func() error {
		if batch.LeafHash(req.DocDigest, req.Tenant, rc.Nonce[:]) != rc.Leaf ||
			!batch.VerifyInclusion(rc.Leaf, rc.LeafIndex, rc.BatchSize, rc.Path, rc.Root) ||
			batch.RootDigest(rc.Root, rc.Counter) != rc.Digest {
			return fmt.Errorf("batch receipt for counter %d does not verify", rc.Counter)
		}
		return nil
	}, nil
}

// rebaseAllocMB is the heap allocated by one Worker.Rebase, measured with
// nothing else running.
func (d *driver) rebaseAllocMB() (float64, error) {
	if !d.w.fleet {
		return 0, nil
	}
	const rounds = 4
	b := d.backends[d.owner]
	wk, err := b.pool.Get(context.Background())
	if err != nil {
		return 0, err
	}
	defer b.pool.Release(context.Background(), wk, pool.Keep)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		wk.Rebase()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / rounds / (1 << 20), nil
}

// metrics turns the pass into per-layer metrics.
func (d *driver) metrics(vals map[string]float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := func(name string, q float64) float64 { return quantile(d.calls[name], q) }
	ops := float64(d.ops)
	if d.w.fleet {
		vals["tenant.admit_us_p50"] = p(callAdmit, .5)
		var leaves int
		for _, s := range d.signs {
			leaves += s.size
		}
		vals["batch.wait_us_p50"] = p(callWait, .5)
		vals["batch.wait_us_p99"] = p(callWait, .99)
		vals["batch.sign_us_p50"] = p(callSign, .5)
		vals["batch.mean_size"] = ratio(float64(leaves), float64(len(d.signs)))
		vals["batch.dedup_ratio"] = 1 - ratio(float64(leaves), float64(d.receipts))
		vals["batch.crossings_per_sign"] = ratio(float64(len(d.signs)), float64(d.receipts))
	}
	vals["tenant.rejects"] += float64(d.rejects)
	vals["pool.acquire_us_p50"] = p(callAcquire, .5)
	vals["pool.acquire_us_p99"] = p(callAcquire, .99)
	vals["pool.release_us_p50"] = p(callRelease, .5)
	if d.w.fleet {
		vals["pool.rebase_us_p50"] = p(callRebase, .5)
		vals["pool.rebase_us_p99"] = p(callRebase, .99)
		vals["seal.checkpoint_us_p50"] = p(callSeal, .5)
		vals["seal.checkpoint_us_p99"] = p(callSeal, .99)
		vals["seal.sim_cycles_per_checkpoint"] = ratio(float64(d.sealCycles), float64(d.seals))
		vals["store.save_us_p50"] = p(callSave, .5)
		vals["store.save_us_p99"] = p(callSave, .99)
		var fsyncs int
		var bytes int64
		for _, b := range d.backends {
			b.disk.mu.Lock()
			fsyncs += b.disk.fsyncs
			bytes += b.disk.bytes
			b.disk.mu.Unlock()
		}
		vals["store.fsyncs_per_sign"] = ratio(float64(fsyncs), float64(d.signOps))
		vals["store.bytes_per_sign"] = ratio(float64(bytes), float64(d.signOps))
	}
	var restores, deltas, pages uint64
	for _, b := range d.backends {
		s := b.pool.Stats()
		restores += s.Restores
		deltas += s.DeltaRestores
		pages += s.RestorePages
	}
	vals["mem.restore_pages_per_op"] = ratio(float64(pages), ops)
	vals["mem.delta_restore_ratio"] = ratio(float64(deltas), float64(restores))
	e := func(i int) float64 { return float64(d.exec[i]) }
	vals["arm.instr_per_op"] = ratio(e(ctrRetired), ops)
	vals["arm.minstr_per_s"] = ratio(e(ctrRetired), d.execTime.Seconds()) / 1e6
	vals["arm.block_cache_hit_rate"] = ratio(e(ctrBlockHits), e(ctrBlockHits)+e(ctrBlockMisses))
	vals["monitor.exec_us_p50"] = p(callExec, .5)
	vals["monitor.exec_us_p99"] = p(callExec, .99)
	vals["monitor.sim_cycles_per_op"] = ratio(e(ctrCycles), ops)
	vals["monitor.crossings_per_op"] = ratio(e(ctrSMC), ops)
	vals["monitor.smc_dispatch_cycles_per_op"] = ratio(e(ctrDispatch), ops)
	vals["monitor.smc_body_cycles_per_op"] = ratio(e(ctrBody), ops)
	vals["unattributed_share"] = ratio(float64(d.opTotal-d.attributed), float64(d.opTotal))
}

// medianAttest is the driver's median attest time, in µs.
func (d *driver) medianAttest() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return quantile(d.attestTimes, .5)
}
