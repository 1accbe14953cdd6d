// Command benchmark measures the Komodo serving system end to end and layer
// by layer. Build and run it from the repository root with
//
//	bash benchmark/run.sh --workload mixed-fleet --seed 7 --seconds 20 --trace 0
//
// It boots in-process komodo-serve equivalents (server.New over
// pool.New(server.Blueprint)) on loopback listeners, with a gateway in front
// for mixed-fleet, drives them with a closed loop of two clients generated
// from --seed, checks every output, and prints one JSON object as its last
// line of output. --trace 0 prints the end-to-end metrics; --trace 1 prints
// the per-layer metrics of a traced run, measured by timing calls into each
// layer from outside. --record FILE also appends the run to FILE, and
//
//	bash benchmark/run.sh --compare OLD NEW
//
// compares two such files (see compare.go).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// setupRounds is how many times an untraced run sets its stack up; setup_s
// is the median.
const setupRounds = 15

// warmup is driven before anything is measured, so the interpreter's
// caches fill and the heap reaches its working size. Its operations are
// checked like the measured ones.
const warmup = time.Second

// buildDir holds the benchmark's build outputs and, while it runs, its
// state dirs; it is relative to the repository root.
const buildDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "workload: attest-volatile or mixed-fleet")
	seed := flag.Uint64("seed", 1, "seed the requests are generated from")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	record := flag.String("record", "", "also append the run as one JSON line to this file")
	compare := flag.Bool("compare", false, "compare two --record files: --compare OLD NEW")
	flag.Parse()

	if *compare {
		if err := runCompare("BENCHMARK.json", flag.Args(), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(2)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: --workload NAME --seed N --seconds S --trace 0|1;", err)
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if *record != "" {
		if err := appendRecord(*record, runRecord{Workload: w.name, Seed: *seed, Trace: *trace, Seconds: *seconds, Result: res}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: record:", err)
			os.Exit(1)
		}
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// runRecord is one line of a --record file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Seconds  int    `json:"seconds"`
	Result   result `json:"result"`
}

func appendRecord(path string, r runRecord) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runWorkload(w *workload, seed uint64, dur time.Duration, traced bool) (result, error) {
	root, err := stateRootIn(buildDir)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)
	fmt.Fprintf(os.Stderr, "%s: seed %d, %v, %d clients, %d CPUs\n", w.name, seed, dur, clients, runtime.NumCPU())
	if traced {
		return tracedRun(w, seed, dur, root)
	}
	return untracedRun(w, seed, dur, root)
}

// outcome folds a run's failures into the result's counts.
type outcome struct {
	attempted, failed, tenantRejects int
	errs                             []string
}

func (o *outcome) add(lr loadResult) {
	o.attempted += len(lr.samples)
	o.failed += lr.failed
	o.tenantRejects += lr.tenantRejects
	o.errs = append(o.errs, lr.errs...)
}

// addErrs counts whole-run check failures (counter streams, durability).
func (o *outcome) addErrs(errs []string) {
	o.failed += len(errs)
	o.errs = append(o.errs, errs...)
}

func (o *outcome) result(defs []metricDef, vals map[string]float64) result {
	for i, e := range o.errs {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "... %d more failures\n", len(o.errs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "FAIL:", e)
	}
	return result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: fill(defs, vals)}
}

// finish closes the stack, then runs the whole-run checks.
func finish(st *stack, c *client, o *outcome) error {
	c.close()
	if err := st.close(); err != nil {
		return fmt.Errorf("closing servers: %w", err)
	}
	o.addErrs(c.chk.streamErrors())
	o.addErrs(c.chk.durabilityErrors(st))
	return nil
}

func untracedRun(w *workload, seed uint64, dur time.Duration, root string) (result, error) {
	var setups []float64
	var st *stack
	for i := 0; i < setupRounds; i++ {
		// Every round starts from a collected heap, so a round does not
		// pay for its predecessor's garbage.
		runtime.GC()
		start := time.Now()
		s, err := newStack(w, root, new(atomic.Pointer[spanLog]))
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == setupRounds-1 {
			st = s
			break
		}
		if err := s.close(); err != nil {
			return result{}, fmt.Errorf("setup teardown: %w", err)
		}
		for _, b := range s.backends {
			os.RemoveAll(b.dir)
		}
	}
	var next atomic.Uint64
	c, err := newClient(st, newOpSource(w, seed), &next)
	if err != nil {
		st.close()
		return result{}, err
	}
	var o outcome
	o.add(c.run(clients, warmup))
	cpu0, err := cpuTime()
	if err != nil {
		st.close()
		return result{}, err
	}
	lr := c.run(clients, dur)
	cpu1, err := cpuTime()
	if err != nil {
		st.close()
		return result{}, err
	}
	o.add(lr)
	if err := finish(st, c, &o); err != nil {
		return result{}, err
	}

	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	var lat, attestLat []float64
	for _, s := range lr.samples {
		if !s.ok {
			continue
		}
		ms := float64(s.end-s.start) / float64(time.Millisecond)
		lat = append(lat, ms)
		if s.kind == opAttest {
			attestLat = append(attestLat, ms)
		}
	}
	ok := float64(len(lat))
	vals := map[string]float64{
		"setup_s":       quantile(setups, .5),
		"attest_p50_ms": quantile(attestLat, .5),
		"cpu_ms_per_op": ratio(float64(cpu1-cpu0)/float64(time.Millisecond), ok),
		"ok_ratio":      ratio(ok, float64(len(lr.samples))),
		"peak_rss_mb":   rss,
	}
	// Rate and tail latency follow the host's CPU steal and disk, not only
	// the program, so they are printed here for reading but not gated.
	fmt.Fprintf(os.Stderr, "%d ops in %.1fs: %.1f ok/s, p50 %.3f ms, p99 %.3f ms, attest p50 %.3f ms, %.4f CPU ms/op, setup %.3fs\n",
		len(lr.samples), lr.elapsed.Seconds(), ok/lr.elapsed.Seconds(), quantile(lat, .5), quantile(lat, .99),
		vals["attest_p50_ms"], vals["cpu_ms_per_op"], vals["setup_s"])
	return o.result(endToEnd, vals), nil
}

// tracedRun alternates untraced and traced quarters of dur against one
// stack, then runs the layer driver's fixed pass on fresh backends.
func tracedRun(w *workload, seed uint64, dur time.Duration, root string) (result, error) {
	spans := new(atomic.Pointer[spanLog])
	st, err := newStack(w, root, spans)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	var next atomic.Uint64
	c, err := newClient(st, newOpSource(w, seed), &next)
	if err != nil {
		st.close()
		return result{}, err
	}
	var o outcome
	o.add(c.run(clients, warmup))
	var plainOK, tracedOK int
	var plainSecs, tracedSecs float64
	var tracedSamples []sample
	log := newSpanLog()
	for i := 0; i < 2; i++ {
		lr := c.run(clients, dur/4)
		o.add(lr)
		plainOK += okCount(lr)
		plainSecs += lr.elapsed.Seconds()

		spans.Store(log)
		lr = c.run(clients, dur/4)
		spans.Store(nil)
		o.add(lr)
		tracedOK += okCount(lr)
		tracedSecs += lr.elapsed.Seconds()
		tracedSamples = append(tracedSamples, lr.samples...)
	}
	if err := finish(st, c, &o); err != nil {
		return result{}, err
	}

	drv, err := newDriver(w, newOpSource(w, seed), root)
	if err != nil {
		return result{}, fmt.Errorf("driver setup: %w", err)
	}
	start := time.Now()
	drv.run(w.driverOps, clients)
	fmt.Fprintf(os.Stderr, "driver: %d ops in %v\n", w.driverOps, time.Since(start).Round(time.Millisecond))
	allocMB, err := drv.rebaseAllocMB()
	drv.close()
	if err != nil {
		return result{}, err
	}
	o.attempted += w.driverOps
	o.addErrs(drv.errs)

	vals := map[string]float64{"tenant.rejects": float64(o.tenantRejects), "mem.rebase_alloc_mb": allocMB}
	drv.metrics(vals)
	h := joinSpans(log, tracedSamples, drv.medianAttest())
	if w.backends > 1 {
		vals["gateway.self_us_p50"] = quantile(h.gatewaySelf, .5)
		vals["gateway.self_us_p99"] = quantile(h.gatewaySelf, .99)
	}
	vals["server.self_us_p50"] = quantile(h.serverSelf, .5)
	vals["server.self_us_p99"] = quantile(h.serverSelf, .99)
	vals["net.self_us_p50"] = quantile(h.netSelf, .5)
	plain, traced := float64(plainOK)/plainSecs, float64(tracedOK)/tracedSecs
	vals["trace_overhead_pct"] = 100 * (plain - traced) / plain
	return o.result(perLayer, vals), nil
}

func okCount(lr loadResult) int {
	n := 0
	for _, s := range lr.samples {
		if s.ok {
			n++
		}
	}
	return n
}

// cpuTime is the user and system CPU time the process has used.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
