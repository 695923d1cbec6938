// Package metricname_a exercises the metricname analyzer against the real
// obs registry API.
package metricname_a

import "repro/internal/obs"

// value is the scrape-time view every registration below reads.
func value() float64 { return 0 }

// register holds the conventional (negative) cases and each naming
// violation class.
func register(r *obs.Registry, h *obs.Histogram) {
	r.CounterFunc("adsala_requests_total", "requests served", value)
	r.GaugeFunc("adsala_queue_depth", "queued requests", value)
	r.RegisterHistogram("adsala_rank_seconds", "ranking latency", h)

	r.CounterFunc("adsala_Requests_total", "uppercase", value)   // want `does not match the project scheme`
	r.CounterFunc("adsala_requests", "missing suffix", value)    // want `counter "adsala_requests" must end in _total`
	r.GaugeFunc("adsala_flushes_total", "counter suffix", value) // want `gauge "adsala_flushes_total" must not end in _total`
	r.RegisterHistogram("adsala_rank_latency", "unitless", h)    // want `histogram "adsala_rank_latency" must end in a unit suffix`
	r.CounterFunc(dynamicName(), "computed name", value)         // want `must be a literal string`
}

func dynamicName() string { return "adsala_dynamic_total" }

// conflict registers one name as two different metric types — the class
// that panics inside obs at serve time.
func conflict(r *obs.Registry) {
	r.GaugeFunc("adsala_depth_size", "as a gauge", value)
	r.RegisterHistogram("adsala_depth_size", "as a histogram", nil) // want `already registered as a gauge .* registering it as a histogram panics at runtime`
}

// dupA/dupB register the same name at two sites with nothing to tell the
// series apart.
func dupA(r *obs.Registry) {
	r.CounterFunc("adsala_dup_total", "site one", value)
}

func dupB(r *obs.Registry) {
	r.CounterFunc("adsala_dup_total", "site two", value) // want `registered at multiple sites .* without labels`
}

// workerA/workerB are the sanctioned multi-site shape: labels distinguish
// the series — no finding.
func workerA(r *obs.Registry) {
	r.CounterFunc("adsala_worker_units_total", "units", value, obs.Label{Name: "worker", Value: "a"})
}

func workerB(r *obs.Registry) {
	r.CounterFunc("adsala_worker_units_total", "units", value, obs.Label{Name: "worker", Value: "b"})
}
