package exp

import (
	"errors"
	"math"
	"sort"
	"time"
)

// This file is the statistical machinery of the evaluation: the relative
// absolute/squared prediction errors of §8.1, empirical quantiles for the
// workload characterization figures, and moving averages for the
// "instant job response time" series of Figure 10.

// rae computes the relative absolute error between predictions p and
// observations l (§8.1):
//
//	RAE = Σ|p_j − l_j| / Σ|l_j − mean(l)|
func rae(pred, obs []float64) (float64, error) {
	return relativeError(pred, obs, math.Abs, func(x float64) float64 { return x })
}

// rse computes the relative squared error between predictions and
// observations (§8.1):
//
//	RSE = sqrt( Σ(p_j − l_j)² / Σ(l_j − mean(l))² )
func rse(pred, obs []float64) (float64, error) {
	return relativeError(pred, obs, func(d float64) float64 { return d * d }, math.Sqrt)
}

// relativeError is outer(Σ loss(p_j − l_j) / Σ loss(l_j − mean(l))): 0 for
// a perfect prediction of a constant series, +Inf for an imperfect one.
func relativeError(pred, obs []float64, loss, outer func(float64) float64) (float64, error) {
	if len(pred) != len(obs) {
		return 0, errors.New("exp: series length mismatch")
	}
	if len(obs) == 0 {
		return 0, errors.New("exp: empty series")
	}
	m := mean(obs)
	var num, den float64
	for i := range pred {
		num += loss(pred[i] - obs[i])
		den += loss(obs[i] - m)
	}
	if den == 0 {
		if num == 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return outer(num / den), nil
}

// mean returns the arithmetic mean, 0 for empty input.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cdf is an empirical cumulative distribution function.
type cdf struct {
	sorted []float64
}

// newCDF builds a CDF from samples (which it copies and sorts).
func newCDF(samples []float64) *cdf {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &cdf{sorted: s}
}

// quantile returns the q-th quantile, q in [0, 1], interpolating linearly
// between samples.
func (c *cdf) quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := q * float64(len(c.sorted)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return c.sorted[lo]
	}
	frac := idx - float64(lo)
	return c.sorted[lo]*(1-frac) + c.sorted[hi]*frac
}

// timePoint is a time-stamped sample of a time series.
type timePoint struct {
	At    time.Duration
	Value float64
}

// movingAverage computes the trailing-window moving average of a
// time-stamped series — the "instant job response time ... computed using
// the moving average of a 30-min window" of Figure 10. Input must be
// sorted by time; output has one point per input point.
func movingAverage(series []timePoint, window time.Duration) []timePoint {
	if window <= 0 {
		return append([]timePoint(nil), series...)
	}
	out := make([]timePoint, len(series))
	var sum float64
	start := 0
	for i, p := range series {
		sum += p.Value
		for series[start].At < p.At-window {
			sum -= series[start].Value
			start++
		}
		out[i] = timePoint{At: p.At, Value: sum / float64(i-start+1)}
	}
	return out
}

// downsample reduces a series to at most n points by averaging buckets of
// equal time width; used to render long timelines compactly.
func downsample(series []timePoint, n int) []timePoint {
	if n <= 0 || len(series) <= n {
		return append([]timePoint(nil), series...)
	}
	lo := series[0].At
	span := series[len(series)-1].At - lo
	if span <= 0 {
		return []timePoint{series[0]}
	}
	bucketW := max(span/time.Duration(n), 1)
	var out []timePoint
	i := 0
	for b := 0; b < n && i < len(series); b++ {
		end := lo + time.Duration(b+1)*bucketW
		var sum float64
		var cnt int
		var last time.Duration
		for i < len(series) && (series[i].At < end || b == n-1) {
			sum += series[i].Value
			last = series[i].At
			cnt++
			i++
		}
		if cnt > 0 {
			out = append(out, timePoint{At: last, Value: sum / float64(cnt)})
		}
	}
	return out
}
