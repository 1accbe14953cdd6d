package telemetry

import (
	"encoding/json"

	"repro/internal/kapi"
)

// SMCName resolves an SMC call number to its KOM_* name.
func SMCName(call uint32) string { return kapi.SMCName(call) }

// SVCName resolves an SVC call number to its KOM_SVC_* name.
func SVCName(call uint32) string { return kapi.SVCName(call) }

// CallStats is the exported view of one call series.
type CallStats struct {
	Call   uint32 `json:"call"`
	Name   string `json:"name"`
	Count  uint64 `json:"count"`
	Errors uint64 `json:"errors"`
	Cycles uint64 `json:"cycles"`
	// DispatchCycles is the share of Cycles spent on SMC entry/exit
	// boilerplate (world switch, register save/restore); BodyCycles is
	// the handler's own work. DispatchCycles+BodyCycles == Cycles.
	DispatchCycles uint64 `json:"dispatch_cycles"`
	BodyCycles     uint64 `json:"body_cycles"`
	// Hist is the log2 cycle histogram (see HistBucket).
	Hist [NumHistBuckets]uint64 `json:"hist"`
}

// Mean returns the average cycles per call (0 if the call never ran).
func (c CallStats) Mean() uint64 {
	if c.Count == 0 {
		return 0
	}
	return c.Cycles / c.Count
}

// TLBStats is the MMU's translation-cache view, filled in by the platform
// (the TLB belongs to the machine, not the recorder).
type TLBStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Fills   uint64 `json:"fills"`
	Flushes uint64 `json:"flushes"`
	Entries int    `json:"entries"`
}

// MemStats is the physical-memory view of the dirty-page delta-restore
// machinery (internal/mem), filled in by the platform.
type MemStats struct {
	// DirtyPages is a gauge: pages written since the last snapshot or
	// restore (what the next delta restore would copy back).
	DirtyPages int `json:"dirty_pages"`
	// TotalPages sizes the gauge: what a full restore copies.
	TotalPages    int    `json:"total_pages"`
	Snapshots     uint64 `json:"snapshots"`
	DeltaRestores uint64 `json:"delta_restores"`
	FullRestores  uint64 `json:"full_restores"`
	WordsCopied   uint64 `json:"words_copied"`
	PagesCopied   uint64 `json:"pages_copied"`
}

// BlockCacheStats is the interpreter's superblock translation cache view
// (internal/arm), filled in by the platform. Blocks/BlockInsns give the
// mean dispatched block length.
type BlockCacheStats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Revalidated uint64 `json:"revalidated"`
	Invalidated uint64 `json:"invalidated"`
	Fills       uint64 `json:"fills"`
	Resets      uint64 `json:"resets"`
	Blocks      uint64 `json:"blocks"`
	BlockInsns  uint64 `json:"block_insns"`
	Enabled     bool   `json:"enabled"`
}

// MeanBlockLen is the average number of instructions retired per block
// execution (0 if no block ever ran).
func (s BlockCacheStats) MeanBlockLen() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.BlockInsns) / float64(s.Blocks)
}

// TraceStats summarises the boundary-event ring.
type TraceStats struct {
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped"`
	Capacity int    `json:"capacity"`
}

// ReplayStats counts deterministic record/replay activity (internal/replay),
// filled in by the serving layer from the replay package's global counters.
type ReplayStats struct {
	Recorded uint64 `json:"recorded"`
	Replayed uint64 `json:"replayed"`
	Diverged uint64 `json:"diverged"`
}

// Snapshot is a point-in-time JSON view of everything the stack has
// observed. The recorder fills its own series (SMC, SVC, lifecycle, page
// flow, trace); the platform layers in machine-owned gauges (cycles,
// retired instructions, instruction classes, TLB, page census).
type Snapshot struct {
	Cycles  uint64 `json:"cycles"`
	Retired uint64 `json:"retired"`

	SMC []CallStats `json:"smc"`
	SVC []CallStats `json:"svc"`

	// EnterSetupCycles / ResumeSetupCycles are the latest Table 3 "Enter
	// only" / "Resume only" measurements: SMC entry to first enclave
	// instruction.
	EnterSetupCycles  uint64 `json:"enter_setup_cycles"`
	ResumeSetupCycles uint64 `json:"resume_setup_cycles"`

	Lifecycle map[string]uint64 `json:"lifecycle"`
	PageMoves map[string]uint64 `json:"page_moves"`

	// InsnClasses counts retired instructions by class (filled by the
	// platform from the machine's interpreter).
	InsnClasses map[string]uint64 `json:"insn_classes"`
	TLB         TLBStats          `json:"tlb"`
	Mem         MemStats          `json:"mem"`
	BlockCache  BlockCacheStats   `json:"block_cache"`
	// PageCensus counts secure pages by current PageDB type (filled by
	// the platform from the decoded PageDB).
	PageCensus map[string]int `json:"page_census"`

	Trace  TraceStats  `json:"trace"`
	Replay ReplayStats `json:"replay"`
}

// exportSeries copies the non-empty series out of a callSeries array.
func exportSeries(series *[MaxCall]callSeries, name func(uint32) string) []CallStats {
	var out []CallStats
	for call := uint32(0); call < MaxCall; call++ {
		s := &series[call]
		n := s.count.Load()
		if n == 0 {
			continue
		}
		cs := CallStats{
			Call:           call,
			Name:           name(call),
			Count:          n,
			Errors:         s.errors.Load(),
			Cycles:         s.cycles.Load(),
			DispatchCycles: s.dispatch.Load(),
			BodyCycles:     s.body.Load(),
		}
		if cs.Name == "" {
			cs.Name = "unknown"
		}
		for b := range cs.Hist {
			cs.Hist[b] = s.hist[b].Load()
		}
		out = append(out, cs)
	}
	return out
}

// Snapshot exports the recorder-owned series. Counters are read
// atomically but not as one transaction: a snapshot taken while calls are
// in flight is a consistent-enough view for reporting, and exact when the
// platform is quiescent.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	s.Lifecycle = map[string]uint64{}
	s.PageMoves = map[string]uint64{}
	if r == nil {
		return s
	}
	s.SMC = exportSeries(&r.smc, SMCName)
	s.SVC = exportSeries(&r.svc, SVCName)
	s.EnterSetupCycles = r.enterSetup.Load()
	s.ResumeSetupCycles = r.resumeSetup.Load()
	for l := Lifecycle(0); l < NumLifecycle; l++ {
		if n := r.lifecycle[l].Load(); n > 0 {
			s.Lifecycle[l.String()] = n
		}
	}
	for mv := uint32(0); mv < NumPageMoves; mv++ {
		if n := r.pageMoves[mv].Load(); n > 0 {
			s.PageMoves[pageMoveNames[mv]] = n
		}
	}
	s.Trace = TraceStats{
		Recorded: r.ring.Total(),
		Dropped:  r.ring.Dropped(),
		Capacity: r.ring.Capacity(),
	}
	return s
}

// MarshalIndent renders the snapshot as indented JSON (the -stats view).
func (s Snapshot) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
