package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/kasm"
	"repro/internal/pool"
	"repro/internal/server"
)

// checker verifies every operation's output as it arrives and keeps the
// notary counter streams for the checks that need the whole run.
type checker struct {
	quoteKey [8]uint32

	mu      sync.Mutex
	streams map[streamKey][]ack
	acked   map[workerKey]uint32 // highest acknowledged counter per worker
}

// streamKey is one notary counter stream: counters are strictly
// increasing within one (backend, worker, epoch, restores) window.
type streamKey struct {
	backend                 string
	worker, epoch, restores int
}

type workerKey struct {
	backend string
	worker  int
}

// ack is one acknowledged counter and when the client waited for it.
type ack struct {
	counter    uint32
	root       string // Merkle root of the batch the sign was in
	start, end time.Duration
}

func newChecker(quoteKey [8]uint32) *checker {
	return &checker{quoteKey: quoteKey, streams: map[streamKey][]ack{}, acked: map[workerKey]uint32{}}
}

// attest checks that the quote attests exactly the nonce sent and verifies
// against the key /v1/quotekey published.
func (c *checker) attest(nonce string, ar server.AttestResponse) error {
	if ar.Nonce != nonce {
		return fmt.Errorf("attest: nonce %q echoed as %q", nonce, ar.Nonce)
	}
	data, err := server.DecodeWords(ar.Data)
	if err != nil {
		return fmt.Errorf("attest data: %w", err)
	}
	if data != server.NonceWords([]byte(nonce)) {
		return fmt.Errorf("attest: data does not bind nonce %q", nonce)
	}
	meas, err := server.DecodeWords(ar.Measurement)
	if err != nil {
		return fmt.Errorf("attest measurement: %w", err)
	}
	quote, err := server.DecodeWords(ar.Quote)
	if err != nil {
		return fmt.Errorf("attest quote: %w", err)
	}
	if !kasm.VerifyQuote(c.quoteKey, meas, data, quote) {
		return fmt.Errorf("attest: quote for nonce %q does not verify", nonce)
	}
	return nil
}

// sign checks a notarisation's batch receipt with
// server.VerifyBatchReceipt and books its counter.
func (c *checker) sign(doc []byte, nr server.NotaryResponse, backend string, start, end time.Duration) error {
	if err := server.VerifyBatchReceipt(nr, doc); err != nil {
		return fmt.Errorf("batch receipt: %w", err)
	}
	a := ack{counter: nr.Counter, root: nr.Batch.Root, start: start, end: end}
	c.mu.Lock()
	defer c.mu.Unlock()
	sk := streamKey{backend, nr.Worker, nr.Epoch, nr.Restores}
	c.streams[sk] = append(c.streams[sk], a)
	wk := workerKey{backend, nr.Worker}
	if nr.Counter > c.acked[wk] {
		c.acked[wk] = nr.Counter
	}
	return nil
}

// streamErrors checks every counter stream after the run: a counter is
// issued once (receipts of one batch share it, and must share its root),
// and a sign that was answered before another was sent holds the lower
// counter.
func (c *checker) streamErrors() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var errs []string
	for sk, acks := range c.streams {
		sort.Slice(acks, func(i, j int) bool { return acks[i].counter < acks[j].counter })
		// Collapse the receipts of each counter: the earliest end and the
		// latest start bound when the counter was issued.
		type tick struct {
			counter          uint32
			minEnd, maxStart time.Duration
		}
		var ticks []tick
		for i, a := range acks {
			if i > 0 && acks[i-1].counter == a.counter {
				if a.root == "" || a.root != acks[i-1].root {
					errs = append(errs, fmt.Sprintf("stream %v: counter %d issued twice", sk, a.counter))
				}
				last := &ticks[len(ticks)-1]
				last.minEnd = min(last.minEnd, a.end)
				last.maxStart = max(last.maxStart, a.start)
				continue
			}
			ticks = append(ticks, tick{a.counter, a.end, a.start})
		}
		// Walking down from the highest counter, no higher counter may have
		// been answered before a lower one was requested.
		var minEndAbove time.Duration = 1 << 62
		for i := len(ticks) - 1; i >= 0; i-- {
			if minEndAbove < ticks[i].maxStart {
				errs = append(errs, fmt.Sprintf("stream %v: counter %d requested after a higher counter was answered", sk, ticks[i].counter))
			}
			minEndAbove = min(minEndAbove, ticks[i].minEnd)
		}
	}
	return errs
}

// durabilityErrors reopens each durable backend's state dir on a fresh
// pool through server.RestoreProvision, as a restarted komodo-serve would,
// and requires every worker's next counter to exceed every counter
// acknowledged on it. The stack must be closed first.
func (c *checker) durabilityErrors(st *stack) []string {
	var errs []string
	for _, b := range st.backends {
		if b.dir == "" {
			continue
		}
		if err := c.reopen(b); err != nil {
			errs = append(errs, fmt.Sprintf("durability %s: %v", b.name, err))
		}
	}
	return errs
}

func (c *checker) reopen(b *backend) error {
	cs, err := server.OpenCheckpointStore(b.dir)
	if err != nil {
		return err
	}
	defer cs.Close()
	p, err := pool.New(pool.Config{Size: workersPerBackend, Boot: server.Blueprint(boardSeed), Provision: server.RestoreProvision(cs)})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer p.Close(ctx)
	held := make([]*pool.Worker, 0, workersPerBackend)
	defer func() {
		for _, wk := range held {
			p.Release(ctx, wk, pool.Keep)
		}
	}()
	for i := 0; i < workersPerBackend; i++ {
		wk, err := p.Get(ctx)
		if err != nil {
			return err
		}
		held = append(held, wk)
		st, ok := wk.State().(*server.WorkerState)
		if !ok {
			return fmt.Errorf("worker state is %T", wk.State())
		}
		n, err := server.NotarySign(ctx, st, []byte("durability probe"))
		if err != nil {
			return err
		}
		c.mu.Lock()
		acked := c.acked[workerKey{b.name, wk.ID()}]
		c.mu.Unlock()
		if n.Counter <= acked {
			return fmt.Errorf("worker %d resumed at counter %d, but %d was acknowledged", wk.ID(), n.Counter, acked)
		}
	}
	return nil
}
