package server

import (
	"net/http"

	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/telemetry"
)

// handleMetrics serves the Prometheus text exposition format (0.0.4),
// hand-written via obs.PromWriter: server counters, pool gauges, the
// per-endpoint wall-clock latency histograms, flight-recorder occupancy,
// merged monitor telemetry from the currently idle workers, and Go
// runtime stats. See docs/OBSERVABILITY.md for the name reference.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)

	p.Counter("komodo_server_requests_total",
		"Requests admitted to the worker path (attest, notary, checkpoint, restore).",
		obs.Sample{Value: float64(s.requests.Load())})
	p.Counter("komodo_server_responses_total",
		"Worker-path responses by result class.",
		obs.Sample{Labels: obs.L("result", "served"), Value: float64(s.served.Load())},
		obs.Sample{Labels: obs.L("result", "rejected_429"), Value: float64(s.rejected.Load())},
		obs.Sample{Labels: obs.L("result", "timeout_503"), Value: float64(s.timeouts.Load())},
		obs.Sample{Labels: obs.L("result", "draining_503"), Value: float64(s.drainRejects.Load())},
		obs.Sample{Labels: obs.L("result", "failure_5xx"), Value: float64(s.failures.Load())})
	p.Gauge("komodo_server_queue_len",
		"Requests currently holding a service slot (in service plus waiting).",
		obs.Sample{Value: float64(len(s.slots))})
	p.Gauge("komodo_server_queue_limit",
		"Configured service-slot bound (QueueDepth).",
		obs.Sample{Value: float64(s.cfg.QueueDepth)})
	p.Gauge("komodo_server_draining",
		"1 while the server is draining, else 0.",
		obs.Sample{Value: obs.BoolValue(s.draining.Load())})

	ps := s.cfg.Pool.Stats()
	p.Gauge("komodo_pool_workers",
		"Worker slots by state.",
		obs.Sample{Labels: obs.L("state", "live"), Value: float64(ps.Live)},
		obs.Sample{Labels: obs.L("state", "dead"), Value: float64(ps.Dead)},
		obs.Sample{Labels: obs.L("state", "available"), Value: float64(ps.Available)},
		obs.Sample{Labels: obs.L("state", "in_flight"), Value: float64(ps.InFlight)})
	p.Counter("komodo_pool_gets_total", "Successful worker checkouts.",
		obs.Sample{Value: float64(ps.Gets)})
	p.Counter("komodo_pool_puts_total", "Worker releases.",
		obs.Sample{Value: float64(ps.Puts)})
	p.Counter("komodo_pool_boots_total", "Full board boots, including the initial ones.",
		obs.Sample{Value: float64(ps.Boots)})
	p.Counter("komodo_pool_restores_total", "Golden-snapshot restores.",
		obs.Sample{Value: float64(ps.Restores)})
	p.Counter("komodo_pool_retires_total", "Workers retired (Fail, health check, reuse limit).",
		obs.Sample{Value: float64(ps.Retires)})
	p.Counter("komodo_pool_health_fails_total", "Post-restore health-check failures.",
		obs.Sample{Value: float64(ps.HealthFails)})
	p.Counter("komodo_pool_boot_seconds_total", "Cumulative wall time booting boards.",
		obs.Sample{Value: float64(ps.BootNS) / 1e9})
	p.Counter("komodo_pool_restore_seconds_total", "Cumulative wall time restoring snapshots.",
		obs.Sample{Value: float64(ps.RestoreNS) / 1e9})
	p.Counter("komodo_pool_restore_words_total",
		"Memory words golden-snapshot restores actually copied (delta restore), "+
			"vs. what full copies of the same restores would have moved.",
		obs.Sample{Labels: obs.L("kind", "copied"), Value: float64(ps.RestoreWords)},
		obs.Sample{Labels: obs.L("kind", "full_equivalent"), Value: float64(ps.RestoreWordsFull)})
	p.Counter("komodo_pool_delta_restores_total",
		"Golden-snapshot restores served by the dirty-page delta path.",
		obs.Sample{Value: float64(ps.DeltaRestores)})

	// Batched signing (docs/BATCHING.md), present when batching is on.
	if s.agg != nil {
		bs := s.agg.Stats()
		p.Counter("komodo_batch_batches_total",
			"Sealed batches by close reason.",
			obs.Sample{Labels: obs.L("close", "full"), Value: float64(bs.BatchesFull)},
			obs.Sample{Labels: obs.L("close", "window"), Value: float64(bs.BatchesWindow)},
			obs.Sample{Labels: obs.L("close", "drain"), Value: float64(bs.BatchesDrain)})
		p.Counter("komodo_batch_signed_total",
			"Sign requests answered from a sealed batch.",
			obs.Sample{Value: float64(bs.Signed)})
		p.Counter("komodo_batch_crossings_saved_total",
			"Enclave crossings avoided: signed requests minus batch signatures.",
			obs.Sample{Value: float64(bs.CrossingsSaved)})
		p.Counter("komodo_batch_sign_failures_total",
			"Batches whose single enclave entry failed (every waiter got a 5xx).",
			obs.Sample{Value: float64(bs.SignFailures)})
		p.Counter("komodo_batch_saturated_total",
			"Sign requests rejected because the batch queue was full.",
			obs.Sample{Value: float64(bs.Saturated)})
		p.Gauge("komodo_batch_pending",
			"Requests admitted to the batcher but not yet signed.",
			obs.Sample{Value: float64(bs.Pending)})
		p.Gauge("komodo_batch_size_max",
			"Largest batch sealed so far.",
			obs.Sample{Value: float64(bs.MaxSize)})
		p.Gauge("komodo_batch_size_mean",
			"Mean sealed-batch size.",
			obs.Sample{Value: bs.MeanSize})
		p.Gauge("komodo_batch_k_current",
			"Current close threshold K, the controller's pick in [MinBatch, MaxBatch].",
			obs.Sample{Value: float64(bs.KCurrent)})
		p.Counter("komodo_batch_dedup_total",
			"Sign requests coalesced onto another request's leaf (identical doc and tenant).",
			obs.Sample{Value: float64(bs.Dedup)})
		p.Histogram("komodo_batch_fill_duration_seconds",
			"Batch fill latency: first enqueue to seal.",
			obs.HistSeries{Snap: s.agg.FillHist().Snapshot()})
	}

	// Durable write path (internal/store), present when checkpoints are on.
	if s.cfg.Checkpoints != nil {
		ss := s.cfg.Checkpoints.StoreStats()
		p.Counter("komodo_store_appends_total",
			"WAL records appended (checkpoint saves).",
			obs.Sample{Value: float64(ss.Appends)})
		p.Counter("komodo_store_fsyncs_total",
			"WAL fsyncs issued, one per append.",
			obs.Sample{Value: float64(ss.Fsyncs)})
		p.Counter("komodo_store_sync_failures_total",
			"WAL fsync failures (each rolled its append back).",
			obs.Sample{Value: float64(ss.SyncFailures)})
	}

	// Tenant admission (internal/tenant), present when admission is on.
	if s.cfg.Admission != nil {
		var admit []obs.Sample
		for _, ts := range s.cfg.Admission.Stats() {
			admit = append(admit,
				obs.Sample{Labels: obs.L("tier", ts.Tier, "result", "admitted"), Value: float64(ts.Admitted)},
				obs.Sample{Labels: obs.L("tier", ts.Tier, "result", "rate_limit"), Value: float64(ts.RejectedRate)},
				obs.Sample{Labels: obs.L("tier", ts.Tier, "result", "quota"), Value: float64(ts.RejectedQuota)},
				obs.Sample{Labels: obs.L("tier", ts.Tier, "result", "shed"), Value: float64(ts.RejectedShed)})
		}
		p.Counter("komodo_tenant_requests_total",
			"Admission decisions by tier and result.", admit...)
		p.Histogram("komodo_tenant_request_duration_seconds",
			"Wall-clock latency of admitted requests by tier and outcome.", s.tierLat.Series("tier")...)
	}

	s.edge.WriteMetrics(p)

	// Deterministic record/replay (docs/REPLAY.md).
	rrec, rrep, rdiv := replay.GlobalStats()
	p.Counter("komodo_replay_traces_total",
		"Record/replay activity: traces recorded, replayed, and found divergent.",
		obs.Sample{Labels: obs.L("event", "recorded"), Value: float64(rrec)},
		obs.Sample{Labels: obs.L("event", "replayed"), Value: float64(rrep)},
		obs.Sample{Labels: obs.L("event", "diverged"), Value: float64(rdiv)})

	// Monitor-level telemetry, merged across the currently idle workers
	// (workers busy serving are skipped, same sampling as /v1/stats).
	snaps := s.cfg.Pool.Telemetry()
	tel := telemetry.Merge(snaps...)
	p.Gauge("komodo_telemetry_workers_sampled",
		"Idle workers whose telemetry this scrape merged.",
		obs.Sample{Value: float64(len(snaps))})
	smcCalls := make([]obs.Sample, 0, len(tel.SMC))
	smcCycles := make([]obs.Sample, 0, len(tel.SMC))
	for _, cs := range tel.SMC {
		smcCalls = append(smcCalls, obs.Sample{Labels: obs.L("call", cs.Name), Value: float64(cs.Count)})
		smcCycles = append(smcCycles, obs.Sample{Labels: obs.L("call", cs.Name), Value: float64(cs.Cycles)})
	}
	p.Counter("komodo_smc_calls_total",
		"Monitor SMC invocations by call, summed over sampled idle workers.", smcCalls...)
	p.Counter("komodo_smc_cycles_total",
		"Simulated cycles spent in the monitor by SMC call, summed over sampled idle workers.",
		smcCycles...)
	p.Gauge("komodo_mem_dirty_pages",
		"Pages written since the last snapshot/restore (what the next delta restore "+
			"will copy), summed over sampled idle workers.",
		obs.Sample{Value: float64(tel.Mem.DirtyPages)})
	p.Counter("komodo_mem_restores_total",
		"Memory restores by path, summed over sampled idle workers.",
		obs.Sample{Labels: obs.L("kind", "delta"), Value: float64(tel.Mem.DeltaRestores)},
		obs.Sample{Labels: obs.L("kind", "full"), Value: float64(tel.Mem.FullRestores)})
	p.Counter("komodo_mem_restore_words_total",
		"Words copied by memory restores, summed over sampled idle workers.",
		obs.Sample{Value: float64(tel.Mem.WordsCopied)})
	p.Counter("komodo_block_cache_total",
		"Superblock translation-cache dispatches by outcome, summed over sampled idle workers.",
		obs.Sample{Labels: obs.L("event", "hit"), Value: float64(tel.BlockCache.Hits)},
		obs.Sample{Labels: obs.L("event", "miss"), Value: float64(tel.BlockCache.Misses)},
		obs.Sample{Labels: obs.L("event", "revalidated"), Value: float64(tel.BlockCache.Revalidated)},
		obs.Sample{Labels: obs.L("event", "invalidated"), Value: float64(tel.BlockCache.Invalidated)})
	p.Counter("komodo_block_cache_insns_total",
		"Instructions retired through cached superblocks (blocks gives the count of "+
			"block executions; the ratio is the mean block length).",
		obs.Sample{Labels: obs.L("kind", "insns"), Value: float64(tel.BlockCache.BlockInsns)},
		obs.Sample{Labels: obs.L("kind", "blocks"), Value: float64(tel.BlockCache.Blocks)})

	obs.WriteRuntimeMetrics(p)
}
