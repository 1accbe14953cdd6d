package telemetry

// Merge combines snapshots from several independently instrumented
// platforms (e.g. the boards of a serving pool) into one aggregate view.
// Counters, cycle totals and histograms sum; the setup-cycle gauges (which
// report the *latest* measurement on a single platform) take the maximum;
// TLB entry counts sum (total resident entries across boards).
func Merge(snaps ...Snapshot) Snapshot {
	var out Snapshot
	out.Lifecycle = map[string]uint64{}
	out.PageMoves = map[string]uint64{}
	smc := map[uint32]*CallStats{}
	svc := map[uint32]*CallStats{}
	for _, s := range snaps {
		out.Cycles += s.Cycles
		out.Retired += s.Retired
		mergeSeries(smc, s.SMC)
		mergeSeries(svc, s.SVC)
		if s.EnterSetupCycles > out.EnterSetupCycles {
			out.EnterSetupCycles = s.EnterSetupCycles
		}
		if s.ResumeSetupCycles > out.ResumeSetupCycles {
			out.ResumeSetupCycles = s.ResumeSetupCycles
		}
		addCounts(out.Lifecycle, s.Lifecycle)
		addCounts(out.PageMoves, s.PageMoves)
		if s.InsnClasses != nil {
			if out.InsnClasses == nil {
				out.InsnClasses = map[string]uint64{}
			}
			addCounts(out.InsnClasses, s.InsnClasses)
		}
		if s.PageCensus != nil {
			if out.PageCensus == nil {
				out.PageCensus = map[string]int{}
			}
			for k, v := range s.PageCensus {
				out.PageCensus[k] += v
			}
		}
		out.TLB.Hits += s.TLB.Hits
		out.TLB.Misses += s.TLB.Misses
		out.TLB.Fills += s.TLB.Fills
		out.TLB.Flushes += s.TLB.Flushes
		out.TLB.Entries += s.TLB.Entries
		out.Mem.DirtyPages += s.Mem.DirtyPages
		out.Mem.TotalPages += s.Mem.TotalPages
		out.Mem.Snapshots += s.Mem.Snapshots
		out.Mem.DeltaRestores += s.Mem.DeltaRestores
		out.Mem.FullRestores += s.Mem.FullRestores
		out.Mem.WordsCopied += s.Mem.WordsCopied
		out.Mem.PagesCopied += s.Mem.PagesCopied
		out.BlockCache.Hits += s.BlockCache.Hits
		out.BlockCache.Misses += s.BlockCache.Misses
		out.BlockCache.Revalidated += s.BlockCache.Revalidated
		out.BlockCache.Invalidated += s.BlockCache.Invalidated
		out.BlockCache.Fills += s.BlockCache.Fills
		out.BlockCache.Resets += s.BlockCache.Resets
		out.BlockCache.Blocks += s.BlockCache.Blocks
		out.BlockCache.BlockInsns += s.BlockCache.BlockInsns
		out.BlockCache.Enabled = out.BlockCache.Enabled || s.BlockCache.Enabled
		out.Trace.Recorded += s.Trace.Recorded
		out.Trace.Dropped += s.Trace.Dropped
		out.Trace.Capacity += s.Trace.Capacity
		out.Replay.Recorded += s.Replay.Recorded
		out.Replay.Replayed += s.Replay.Replayed
		out.Replay.Diverged += s.Replay.Diverged
	}
	out.SMC = flattenSeries(smc)
	out.SVC = flattenSeries(svc)
	return out
}

func mergeSeries(into map[uint32]*CallStats, series []CallStats) {
	for _, cs := range series {
		acc, ok := into[cs.Call]
		if !ok {
			c := cs
			into[cs.Call] = &c
			continue
		}
		acc.Count += cs.Count
		acc.Errors += cs.Errors
		acc.Cycles += cs.Cycles
		acc.DispatchCycles += cs.DispatchCycles
		acc.BodyCycles += cs.BodyCycles
		for b := range acc.Hist {
			acc.Hist[b] += cs.Hist[b]
		}
	}
}

func flattenSeries(m map[uint32]*CallStats) []CallStats {
	if len(m) == 0 {
		return nil
	}
	out := make([]CallStats, 0, len(m))
	for call := uint32(0); call < MaxCall; call++ {
		if cs, ok := m[call]; ok {
			out = append(out, *cs)
		}
	}
	return out
}

func addCounts(into map[string]uint64, from map[string]uint64) {
	for k, v := range from {
		into[k] += v
	}
}
