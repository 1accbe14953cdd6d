package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tenant"
)

// sample is one client operation as the client saw it. It is kept small:
// a run holds one per operation, and peak_rss_mb counts them.
type sample struct {
	kind       opKind
	ok         bool          // answered 200 and passed its output check
	start, end time.Duration // since the client's epoch
	seq        uint64        // names the request's W3C trace id
}

// traceID is the W3C trace id a request with this sequence number carries.
func traceID(seq uint64) obs.TraceID {
	var id obs.TraceID
	binary.BigEndian.PutUint64(id[:8], 0x6b6f6d6f646f)
	binary.BigEndian.PutUint64(id[8:], seq)
	return id
}

// opOutput is what the differential test compares between the HTTP path
// and the layer driver.
type opOutput struct {
	counter uint32
	digest  string
	quote   string
}

// loadResult is one closed-loop phase.
type loadResult struct {
	samples       []sample
	elapsed       time.Duration
	failed        int
	tenantRejects int
	errs          []string // the first few failures, for stderr
}

// client drives a stack over HTTP with at most `clients` connections.
type client struct {
	url   string
	hc    *http.Client
	chk   *checker
	src   *opSource
	next  *atomic.Uint64 // index of the next operation in the sequence
	epoch time.Time      // samples are timed from here, across phases
	// seq numbers requests so each carries a distinct W3C trace id.
	seq atomic.Uint64
}

func newClient(st *stack, src *opSource, next *atomic.Uint64) (*client, error) {
	c := &client{
		url:   st.url,
		src:   src,
		next:  next,
		epoch: time.Now(),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	var qk server.QuoteKeyResponse
	if err := c.getJSON("/v1/quotekey", &qk); err != nil {
		return nil, err
	}
	key, err := server.DecodeWords(qk.QuoteKey)
	if err != nil {
		return nil, fmt.Errorf("quote key: %w", err)
	}
	c.chk = newChecker(key)
	return c, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) getJSON(path string, out any) error {
	resp, err := c.hc.Get(c.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// run is one closed-loop phase of dur: each of the n clients sends its
// next operation only after the previous one is answered.
func (c *client) run(n int, dur time.Duration) loadResult {
	var (
		mu  sync.Mutex
		res loadResult
		wg  sync.WaitGroup
	)
	begin := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			var failed, rejects int
			var errs []string
			for time.Since(begin) < dur {
				o := c.src.op(c.next.Add(1) - 1)
				s, _, rejected, err := c.do(o)
				if err != nil {
					failed++
					if rejected {
						rejects++
					}
					if len(errs) < 5 {
						errs = append(errs, err.Error())
					}
				}
				local = append(local, s)
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			res.failed += failed
			res.tenantRejects += rejects
			res.errs = append(res.errs, errs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(begin)
	return res
}

// do sends one operation and checks its output. rejected reports a
// tenant-admission refusal.
func (c *client) do(o op) (s sample, out opOutput, rejected bool, err error) {
	s.kind, s.seq = o.kind, c.seq.Add(1)
	var req *http.Request
	if o.kind == opAttest {
		req, err = http.NewRequest(http.MethodGet, c.url+"/v1/attest?nonce="+url.QueryEscape(o.nonce), nil)
	} else {
		req, err = http.NewRequest(http.MethodPost, c.url+"/v1/notary/sign", bytes.NewReader(o.doc))
	}
	if err != nil {
		return s, out, false, err
	}
	req.Header.Set("traceparent", "00-"+traceID(s.seq).String()+"-00000000000000b1-01")
	if o.token != "" {
		req.Header.Set(server.TenantHeader, o.token)
	}
	if o.pin != "" {
		req.Header.Set(server.NonceHeader, o.pin)
	}
	s.start = time.Since(c.epoch)
	resp, err := c.hc.Do(req)
	if err != nil {
		s.end = time.Since(c.epoch)
		return s, out, false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = time.Since(c.epoch)
	if err != nil {
		return s, out, false, err
	}
	if resp.StatusCode != http.StatusOK {
		switch resp.Header.Get(server.RejectHeader) {
		case tenant.ReasonRateLimit, tenant.ReasonQuota, tenant.ReasonShed:
			rejected = true
		}
		return s, out, rejected, fmt.Errorf("%s %s: %s: %s", o.kind, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	if o.kind == opAttest {
		var ar server.AttestResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			return s, out, false, fmt.Errorf("attest response: %w", err)
		}
		if err := c.chk.attest(o.nonce, ar); err != nil {
			return s, out, false, err
		}
		out.quote = ar.Quote
	} else {
		var nr server.NotaryResponse
		if err := json.Unmarshal(body, &nr); err != nil {
			return s, out, false, fmt.Errorf("sign response: %w", err)
		}
		backend := resp.Header.Get("X-Komodo-Backend")
		if backend == "" {
			backend = "b0"
		}
		if err := c.chk.sign(o.doc, nr, backend, s.start, s.end); err != nil {
			return s, out, false, err
		}
		out.counter, out.digest = nr.Counter, nr.Digest
	}
	s.ok = true
	return s, out, false, nil
}
