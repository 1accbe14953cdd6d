package main

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// TestMetricsMatchSpec keeps the printed metrics equal to the ones
// BENCHMARK.json declares, and checks that the benchmark runs every
// workload it names.
func TestMetricsMatchSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp struct {
		spec
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", sp.EndToEnd, endToEnd)
	same("per_layer", sp.PerLayer, perLayer)
	for _, w := range sp.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
}

// TestDriverMatchesHTTP is the driver-vs-server differential: for one seed
// and one client, the layer driver and the HTTP path must produce the same
// counters, digests and quotes on fresh servers. It keeps the traced run's
// replay of server.withWorker, maybeCheckpoint and signBatchRoot faithful.
// Batched signs pin their leaf nonces, which the server would otherwise
// draw at random.
func TestDriverMatchesHTTP(t *testing.T) {
	const n = 40
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			httpOut := make([]opOutput, n)
			src := newOpSource(w, 3)
			src.pin = true
			st, err := newStack(w, t.TempDir(), new(atomic.Pointer[spanLog]))
			if err != nil {
				t.Fatal(err)
			}
			var next atomic.Uint64
			c, err := newClient(st, src, &next)
			if err != nil {
				st.close()
				t.Fatal(err)
			}
			for i := range httpOut {
				_, out, _, err := c.do(src.op(uint64(i)))
				if err != nil {
					t.Errorf("http op %d: %v", i, err)
				}
				httpOut[i] = out
			}
			c.close()
			if err := st.close(); err != nil {
				t.Fatal(err)
			}
			if errs := c.chk.streamErrors(); len(errs) > 0 {
				t.Errorf("stream checks: %v", errs)
			}
			if errs := c.chk.durabilityErrors(st); len(errs) > 0 {
				t.Errorf("durability checks: %v", errs)
			}

			d, err := newDriver(w, src, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			d.run(n, 1)
			d.close()
			if len(d.errs) > 0 {
				t.Fatalf("driver: %v", d.errs)
			}
			for i, want := range httpOut {
				if got := d.outputs[uint64(i)]; got != want {
					t.Errorf("op %d (%s): driver %+v, http %+v", i, src.op(uint64(i)).kind, got, want)
				}
			}
		})
	}
}

// TestStreamErrors checks that the counter-stream check catches a counter
// issued twice and one issued out of order.
func TestStreamErrors(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name string
		acks []ack
		bad  bool
	}{
		{"ordered", []ack{{1, "", 0, ms}, {2, "", 2 * ms, 3 * ms}}, false},
		{"concurrent", []ack{{2, "", 0, 3 * ms}, {1, "", ms, 2 * ms}}, false},
		{"one batch", []ack{{1, "r", 0, ms}, {1, "r", 0, 2 * ms}}, false},
		{"reissued", []ack{{1, "", 0, ms}, {1, "", 2 * ms, 3 * ms}}, true},
		{"two roots", []ack{{1, "r", 0, ms}, {1, "s", 0, ms}}, true},
		{"reordered", []ack{{2, "", 0, ms}, {1, "", 2 * ms, 3 * ms}}, true},
	}
	for _, tc := range cases {
		c := newChecker([8]uint32{})
		c.streams[streamKey{"b0", 0, 0, 0}] = tc.acks
		if got := len(c.streamErrors()) > 0; got != tc.bad {
			t.Errorf("%s: errors = %v, want %v", tc.name, got, tc.bad)
		}
	}
}

// TestCompareVerdicts checks the compare mode's verdict rules.
func TestCompareVerdicts(t *testing.T) {
	lower := specMetric{Name: "p50_ms", Better: "lower", Bound: 0.1}
	runs := func(vs ...float64) side {
		s := side{}
		for i, v := range vs {
			s[uint64(i)] = v
		}
		return s
	}
	cases := []struct {
		name         string
		old, new     side
		moreFailures bool
		want         string
	}{
		{"same", runs(10, 10.1, 9.9, 10), runs(10, 10, 10.1, 9.9), false, "no change"},
		{"regression", runs(10, 10.1, 9.9, 10), runs(12, 12.1, 11.9, 12), false, "REGRESSION"},
		{"gain", runs(10, 10.1, 9.9, 10), runs(9, 9.1, 8.9, 9), false, "gain"},
		{"gain with more failures", runs(10, 10.1, 9.9, 10), runs(9, 9.1, 8.9, 9), true, "no gain (more failures than old)"},
		{"every run better with more failures", runs(8, 10, 12, 10), runs(5, 6, 7, 6), true, "no gain (more failures than old)"},
		{"unresolved", runs(8, 10, 12, 10), runs(9, 11, 8, 10), false, "unresolved (spread above bound)"},
	}
	for _, tc := range cases {
		if got := compareMetric(lower, tc.old, tc.new, tc.moreFailures).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCompareRecords checks that the compare mode leaves out failed runs,
// counts their failures, and refuses to mix run lengths.
func TestCompareRecords(t *testing.T) {
	rec := func(seed uint64, seconds int, correct bool, failed int, v float64) runRecord {
		return runRecord{Workload: "w", Seed: seed, Seconds: seconds, Result: result{
			Correct: correct, Attempted: 100, Failed: failed,
			Metrics: map[string]metricValue{"p50_ms": {Value: v, Unit: "ms"}},
		}}
	}
	recs := []runRecord{rec(1, 30, true, 0, 1), rec(2, 30, false, 3, 0.1), rec(3, 30, true, 0, 2)}
	rs := collect(recs)["w"][0]
	if rs.runs != 3 || rs.failedRuns != 1 || rs.failedOps != 3 {
		t.Errorf("runs %d, failed runs %d, failed ops %d; want 3, 1, 3", rs.runs, rs.failedRuns, rs.failedOps)
	}
	if got := rs.metrics["p50_ms"].values(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("p50_ms values %v, want the two correct runs [1 2]", got)
	}
	if _, err := runSeconds("f", recs); err != nil {
		t.Errorf("one run length: %v", err)
	}
	if _, err := runSeconds("f", append(recs, rec(4, 50, true, 0, 1))); err == nil {
		t.Error("runs of 30 s and 50 s in one file were accepted")
	}
}
