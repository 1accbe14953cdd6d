package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/pool"
	"repro/internal/server"
	"repro/internal/tenant"
)

// backend is one komodo-serve equivalent: a pool, an optional durable
// checkpoint store, the server, and its loopback listener.
type backend struct {
	name  string
	dir   string // state dir; "" for volatile counters
	pool  *pool.Pool
	ckpts *server.CheckpointStore
	srv   *server.Server
	hs    *http.Server
	url   string
}

// stack is everything a workload serves from. Clients talk to url: the
// gateway when there is one, else the single backend.
type stack struct {
	backends []*backend
	gw       *gateway.Gateway
	ghs      *http.Server
	url      string
}

// newStack boots the workload's servers (and gateway) under stateRoot and
// returns once the entry point answers /v1/healthz. spans receives the
// ServeHTTP timings of a traced phase.
func newStack(w *workload, stateRoot string, spans *atomic.Pointer[spanLog]) (*stack, error) {
	s := &stack{}
	for i := 0; i < w.backends; i++ {
		b, err := newBackend(w, i, stateRoot, spans)
		if err != nil {
			s.close()
			return nil, err
		}
		s.backends = append(s.backends, b)
	}
	s.url = s.backends[0].url
	if w.backends > 1 {
		var specs []gateway.BackendSpec
		for _, b := range s.backends {
			specs = append(specs, gateway.BackendSpec{Name: b.name, URL: b.url})
		}
		g, err := gateway.New(gateway.Config{Backends: specs})
		if err != nil {
			s.close()
			return nil, err
		}
		s.gw = g
		hs, url, err := listen(&timedHandler{next: g, layer: layerGateway, spans: spans})
		if err != nil {
			s.close()
			return nil, err
		}
		s.ghs, s.url = hs, url
	}
	if err := waitHealthy(s.url); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func newBackend(w *workload, i int, stateRoot string, spans *atomic.Pointer[spanLog]) (*backend, error) {
	b := &backend{name: "b" + strconv.Itoa(i)}
	cfg := server.Config{}
	pcfg := pool.Config{Size: workersPerBackend, Boot: server.Blueprint(boardSeed)}
	if w.fleet {
		dir, err := os.MkdirTemp(stateRoot, w.name+"-"+b.name+"-")
		if err != nil {
			return nil, err
		}
		b.dir = dir
		if b.ckpts, err = server.OpenCheckpointStore(dir); err != nil {
			return nil, err
		}
		cfg.Checkpoints = b.ckpts
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
		if cfg.Admission, err = tenant.NewRegistry(specs, tokens, ""); err != nil {
			b.close()
			return nil, err
		}
		cfg.BatchMaxSize, cfg.BatchMinSize, cfg.BatchDedup = 32, 2, true
	}
	p, err := pool.New(pcfg)
	if err != nil {
		b.close()
		return nil, err
	}
	b.pool = p
	cfg.Pool = p
	b.srv = server.New(cfg)
	if b.hs, b.url, err = listen(&timedHandler{next: b.srv, layer: layerServer, spans: spans}); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

func waitHealthy(url string) error {
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(url + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy: %v", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops the gateway and every backend, in front-to-back order, and
// waits for their goroutines' work to end. State dirs are kept for the
// durability check.
func (s *stack) close() error {
	var errs []error
	if s.ghs != nil {
		errs = append(errs, shutdown(s.ghs))
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for _, b := range s.backends {
		errs = append(errs, b.close())
	}
	return errors.Join(errs...)
}

func (b *backend) close() error {
	var errs []error
	if b.srv != nil {
		b.srv.Drain()
	}
	if b.hs != nil {
		errs = append(errs, shutdown(b.hs))
	}
	if b.srv != nil {
		b.srv.Close()
	}
	if b.pool != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, b.pool.Close(ctx))
		cancel()
	}
	if b.ckpts != nil {
		errs = append(errs, b.ckpts.Close())
	}
	return errors.Join(errs...)
}

func shutdown(hs *http.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return hs.Shutdown(ctx)
}

// stateRootIn makes a private directory for state dirs under dir.
func stateRootIn(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "state-")
}
