package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// The compare mode reads two --record files, OLD (the parent commit) and
// NEW (the change), and prints per workload:
//
//   - how many runs each side made, and how many failed their output
//     checks; a failed run's metrics are left out, and NEW cannot claim a
//     gain while it fails more runs or operations than OLD. Both files must
//     hold runs of one length;
//   - for each end-to-end metric, each side's median and quartiles, the
//     pair wins of NEW (runs paired by seed), and a verdict: REGRESSION
//     when NEW's median is worse than OLD's by more than the metric's
//     bound; unresolved when either side's quartile spread exceeds the
//     bound, unless every NEW run beats every OLD run; gain when NEW wins
//     at least nine pairs in ten and the medians differ by more than OLD's
//     quartile spread; otherwise no change;
//   - the per-layer delta table of the traced runs.

// spec is the part of BENCHMARK.json the compare mode needs.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// side is one metric's values from one record file, keyed by seed.
type side map[uint64]float64

func (s side) values() []float64 {
	var xs []float64
	for _, v := range s {
		xs = append(xs, v)
	}
	sort.Float64s(xs)
	return xs
}

// runSet is one record file's runs of one workload in one trace mode.
// The metrics of a run whose output checks failed are left out; the run
// and its failed operations are counted, so a change that fails more
// cannot claim a gain.
type runSet struct {
	metrics    map[string]side
	runs       int
	failedRuns int
	failedOps  int
}

// collect indexes records by workload and trace mode.
func collect(recs []runRecord) map[string]map[int]*runSet {
	out := map[string]map[int]*runSet{}
	for _, r := range recs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[int]*runSet{}
		}
		rs := out[r.Workload][r.Trace]
		if rs == nil {
			rs = &runSet{metrics: map[string]side{}}
			out[r.Workload][r.Trace] = rs
		}
		rs.runs++
		rs.failedOps += r.Result.Failed
		if !r.Result.Correct {
			rs.failedRuns++
			continue
		}
		for name, m := range r.Result.Metrics {
			if rs.metrics[name] == nil {
				rs.metrics[name] = side{}
			}
			rs.metrics[name][r.Seed] = m.Value
		}
	}
	return out
}

// runSeconds returns the run length every record in recs shares.
func runSeconds(path string, recs []runRecord) (int, error) {
	if len(recs) == 0 {
		return 0, fmt.Errorf("%s: no runs", path)
	}
	for _, r := range recs {
		if r.Seconds != recs[0].Seconds {
			return 0, fmt.Errorf("%s: runs of %d s and %d s; compare runs of one length", path, recs[0].Seconds, r.Seconds)
		}
	}
	return recs[0].Seconds, nil
}

func runCompare(specPath string, args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("want two record files, OLD and NEW; got %d", len(args))
	}
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	oldRecs, err := readRecords(args[0])
	if err != nil {
		return err
	}
	newRecs, err := readRecords(args[1])
	if err != nil {
		return err
	}
	oldSecs, err := runSeconds(args[0], oldRecs)
	if err != nil {
		return err
	}
	newSecs, err := runSeconds(args[1], newRecs)
	if err != nil {
		return err
	}
	if oldSecs != newSecs {
		return fmt.Errorf("OLD runs last %d s and NEW runs %d s; compare runs of one length", oldSecs, newSecs)
	}
	oldBy, newBy := collect(oldRecs), collect(newRecs)
	var names []string
	for name := range oldBy {
		if _, ok := newBy[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("the two files share no workload")
	}
	for _, name := range names {
		fmt.Fprintf(w, "== %s\n", name)
		oldE2E, newE2E := oldBy[name][0], newBy[name][0]
		moreFailures := false
		if oldE2E != nil && newE2E != nil {
			fmt.Fprintf(w, "runs: old %d (%d failed, %d failed ops), new %d (%d failed, %d failed ops)\n",
				oldE2E.runs, oldE2E.failedRuns, oldE2E.failedOps, newE2E.runs, newE2E.failedRuns, newE2E.failedOps)
			moreFailures = newE2E.failedRuns > oldE2E.failedRuns || newE2E.failedOps > oldE2E.failedOps
		}
		tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tunit\told median [q1, q3]\tnew median [q1, q3]\tdelta\twins\tbound\tverdict")
		for _, m := range sp.EndToEnd {
			if oldE2E == nil || newE2E == nil {
				break
			}
			o, n := oldE2E.metrics[m.Name], newE2E.metrics[m.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			c := compareMetric(m, o, n, moreFailures)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%d/%d\t%.0f%%\t%s\n", m.Name, m.Unit,
				quartiles(o.values()), quartiles(n.values()), 100*c.delta, c.wins, c.pairs, 100*m.Bound, c.verdict)
		}
		tw.Flush()
		tw = tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
		header := false
		for _, m := range sp.PerLayer {
			oldT, newT := oldBy[name][1], newBy[name][1]
			if oldT == nil || newT == nil {
				break
			}
			o, n := oldT.metrics[m.Name], newT.metrics[m.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			if !header {
				fmt.Fprintln(tw, "layer metric\tunit\told median\tnew median\tdelta")
				header = true
			}
			om, nm := quantile(o.values(), .5), quantile(n.values(), .5)
			delta := "-"
			if om != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(nm-om)/math.Abs(om))
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\n", m.Name, m.Unit, om, nm, delta)
		}
		tw.Flush()
		fmt.Fprintln(w)
	}
	return nil
}

func quartiles(xs []float64) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", quantile(xs, .5), quantile(xs, .25), quantile(xs, .75))
}

type comparison struct {
	delta       float64 // (new − old) / old, of the medians
	wins, pairs int
	verdict     string
}

// compareMetric judges one end-to-end metric (choosing-metrics §6–8).
// moreFailures reports that NEW failed more runs or operations than OLD;
// such a change cannot claim a gain.
func compareMetric(m specMetric, o, n side, moreFailures bool) comparison {
	better := func(a, b float64) bool { // a better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	ov, nv := o.values(), n.values()
	om, nm := quantile(ov, .5), quantile(nv, .5)
	c := comparison{delta: ratio(nm-om, math.Abs(om))}
	for seed, x := range o {
		if y, ok := n[seed]; ok {
			c.pairs++
			if better(y, x) {
				c.wins++
			}
		}
	}
	spreadOld := quantile(ov, .75) - quantile(ov, .25)
	spreadNew := quantile(nv, .75) - quantile(nv, .25)
	worse := c.delta
	if m.Better == "higher" {
		worse = -worse
	}
	var allBetter bool
	if m.Better == "higher" {
		allBetter = nv[0] > ov[len(ov)-1]
	} else {
		allBetter = nv[len(nv)-1] < ov[0]
	}
	switch {
	case worse > m.Bound:
		c.verdict = "REGRESSION"
	case ratio(spreadOld, math.Abs(om)) > m.Bound || ratio(spreadNew, math.Abs(nm)) > m.Bound:
		if allBetter {
			c.verdict = "gain (every run better)"
		} else {
			c.verdict = "unresolved (spread above bound)"
		}
	case c.pairs > 0 && float64(c.wins) >= 0.9*float64(c.pairs) && better(nm, om) && math.Abs(nm-om) > spreadOld:
		c.verdict = "gain"
	default:
		c.verdict = "no change"
	}
	if moreFailures && strings.HasPrefix(c.verdict, "gain") {
		c.verdict = "no gain (more failures than old)"
	}
	return c
}
