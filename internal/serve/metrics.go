package serve

import (
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
)

// RegisterMetrics attaches the engine's counters to a Prometheus registry.
// Everything hot-path is already recorded on the engine itself (plain atomic
// adds, no allocation); registration only wires scrape-time views over those
// atomics — the ones Stats reads — so it is safe to call after traffic has
// started and idempotent on the same registry.
func (e *Engine) RegisterMetrics(r *obs.Registry) {
	for i := range e.serving {
		c := &e.serving[i]
		lbl := obs.L("op", Op(i).String())
		r.CounterFunc("adsala_serve_decisions_total",
			"Thread-count decisions served (cached or ranked).",
			sumView(&c.hits, &c.misses), lbl)
		r.CounterFunc("adsala_serve_cache_hits_total",
			"Decisions answered from the decision cache.",
			sumView(&c.hits), lbl)
		r.CounterFunc("adsala_serve_cache_misses_total",
			"Decisions that required a full candidate ranking.",
			sumView(&c.misses), lbl)
		r.RegisterHistogram("adsala_serve_decision_latency_seconds",
			"Latency of one cache-miss candidate ranking.",
			e.decLatency[i], lbl)
	}
	r.CounterFunc("adsala_serve_fallbacks_total",
		"Decisions answered by the deterministic heuristic fallback instead of a model.",
		sumView(&e.fallbacks))
	r.GaugeFunc("adsala_serve_artefact_generation",
		"Hot artefact reloads since boot.",
		func() float64 { return float64(e.Generation()) })

	// Cache geometry is fixed by Options; occupancy reads through to the
	// current generation's cache.
	for i := 0; i < e.Cache().Shards(); i++ {
		shard := i
		r.GaugeFunc("adsala_serve_cache_entries",
			"Decision-cache occupancy per shard.",
			func() float64 { return float64(e.Cache().shards[shard].len()) },
			obs.L("shard", fmt.Sprintf("%d", shard)))
	}
	r.GaugeFunc("adsala_serve_cache_capacity_entries",
		"Total decision-cache capacity.",
		func() float64 { return float64(e.Cache().Capacity()) })
	r.GaugeFunc("adsala_serve_cache_shards",
		"Decision-cache shard count.",
		func() float64 { return float64(e.Cache().Shards()) })
}

// sumView is a scrape-time counter reader over ledger atomics: /metrics
// series are sums of the same atomics Stats sums for /stats.
func sumView(vs ...*atomic.Int64) func() float64 {
	return func() float64 {
		var total int64
		for _, v := range vs {
			total += v.Load()
		}
		return float64(total)
	}
}
