package obs

import "math"

// Moments is a constant-memory one-pass aggregator of count, mean,
// variance (Welford's algorithm), min, and max. Aggregators built over
// disjoint streams merge exactly (Chan et al.'s parallel update), which is
// what lets replay scoring stay single-pass per shard and still report
// global statistics. The zero value is ready to use. Not safe for
// concurrent use.
type Moments struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation in.
func (m *Moments) Add(x float64) {
	m.n++
	if m.n == 1 {
		m.mean, m.m2 = x, 0
		m.min, m.max = x, x
		return
	}
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
	if x < m.min {
		m.min = x
	}
	if x > m.max {
		m.max = x
	}
}

// Merge folds another aggregator's stream into m, as if every observation
// had been Added here.
func (m *Moments) Merge(o Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = o
		return
	}
	n := m.n + o.n
	d := o.mean - m.mean
	m.m2 += o.m2 + d*d*float64(m.n)*float64(o.n)/float64(n)
	m.mean += d * float64(o.n) / float64(n)
	m.n = n
	if o.min < m.min {
		m.min = o.min
	}
	if o.max > m.max {
		m.max = o.max
	}
}

// Count returns the number of observations.
func (m *Moments) Count() int64 { return m.n }

// Mean returns the running mean (0 with no observations).
func (m *Moments) Mean() float64 { return m.mean }

// Var returns the population variance (0 with fewer than two observations).
func (m *Moments) Var() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// Std returns the population standard deviation.
func (m *Moments) Std() float64 { return math.Sqrt(m.Var()) }

// Summary is the JSON form of a Moments aggregate. The online /drift report
// and the offline adsala-replay report both carry it, so residual statistics
// from the two diff cleanly. It is also where the smallest and largest
// observation are read (0 with no observations).
type Summary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Summary returns the aggregate's JSON summary.
func (m *Moments) Summary() Summary {
	return Summary{Count: m.n, Mean: m.mean, Std: m.Std(), Min: m.min, Max: m.max}
}
