package exp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestRAEPerfectPrediction(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	got, err := rae(obs, obs)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("RAE = %v, want 0", got)
	}
}

func TestRAEMeanPredictorIsOne(t *testing.T) {
	obs := []float64{1, 2, 3, 4, 10}
	m := mean(obs)
	pred := []float64{m, m, m, m, m}
	got, err := rae(pred, obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("RAE of mean predictor = %v, want 1", got)
	}
}

func TestRSEKnownValue(t *testing.T) {
	obs := []float64{0, 2}
	pred := []float64{1, 1} // mean predictor
	got, err := rse(pred, obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("RSE = %v, want 1", got)
	}
}

func TestRAERSEErrors(t *testing.T) {
	if _, err := rae([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := rse([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := rae(nil, nil); err == nil {
		t.Fatal("empty series accepted")
	}
	if _, err := rse(nil, nil); err == nil {
		t.Fatal("empty series accepted")
	}
}

func TestRAEConstantSeries(t *testing.T) {
	// Zero denominator: perfect prediction → 0, otherwise +Inf.
	got, err := rae([]float64{5, 5}, []float64{5, 5})
	if err != nil || got != 0 {
		t.Fatalf("constant perfect RAE = %v, %v", got, err)
	}
	got, err = rae([]float64{6, 6}, []float64{5, 5})
	if err != nil || !math.IsInf(got, 1) {
		t.Fatalf("constant imperfect RAE = %v", got)
	}
	gotR, err := rse([]float64{5, 5}, []float64{5, 5})
	if err != nil || gotR != 0 {
		t.Fatalf("constant perfect RSE = %v", gotR)
	}
	gotR, _ = rse([]float64{6, 6}, []float64{5, 5})
	if !math.IsInf(gotR, 1) {
		t.Fatalf("constant imperfect RSE = %v", gotR)
	}
}

func TestMean(t *testing.T) {
	if mean(nil) != 0 {
		t.Fatal("empty should be 0")
	}
	if got := mean([]float64{2, 4, 4, 4, 5, 5, 7, 9}); got != 5 {
		t.Fatalf("mean = %v", got)
	}
}

func TestCDFQuantile(t *testing.T) {
	c := newCDF([]float64{4, 2, 3, 1})
	if got := c.quantile(0); got != 1 {
		t.Fatalf("Q(0) = %v", got)
	}
	if got := c.quantile(1); got != 4 {
		t.Fatalf("Q(1) = %v", got)
	}
	if got := c.quantile(0.5); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	if newCDF(nil).quantile(0.5) != 0 {
		t.Fatal("empty CDF should be all zeros")
	}
}

func TestMovingAverageWindow(t *testing.T) {
	series := []timePoint{
		{At: 0, Value: 10},
		{At: time.Minute, Value: 20},
		{At: 2 * time.Minute, Value: 30},
		{At: 10 * time.Minute, Value: 100},
	}
	ma := movingAverage(series, 5*time.Minute)
	if len(ma) != 4 {
		t.Fatalf("len = %d", len(ma))
	}
	if ma[0].Value != 10 {
		t.Fatalf("ma[0] = %v", ma[0].Value)
	}
	if ma[1].Value != 15 {
		t.Fatalf("ma[1] = %v", ma[1].Value)
	}
	if ma[2].Value != 20 {
		t.Fatalf("ma[2] = %v", ma[2].Value)
	}
	// At t=10m the window [5m,10m] holds only the last point.
	if ma[3].Value != 100 {
		t.Fatalf("ma[3] = %v", ma[3].Value)
	}
}

func TestMovingAverageZeroWindowIdentity(t *testing.T) {
	series := []timePoint{{At: 0, Value: 1}, {At: 1, Value: 9}}
	ma := movingAverage(series, 0)
	if len(ma) != 2 || ma[1].Value != 9 {
		t.Fatalf("identity MA = %v", ma)
	}
}

func TestDownsample(t *testing.T) {
	var series []timePoint
	for i := 0; i < 100; i++ {
		series = append(series, timePoint{At: time.Duration(i) * time.Second, Value: float64(i)})
	}
	ds := downsample(series, 10)
	if len(ds) > 10 {
		t.Fatalf("downsampled to %d, want <= 10", len(ds))
	}
	for i := 1; i < len(ds); i++ {
		if ds[i].At <= ds[i-1].At {
			t.Fatal("not time-ordered")
		}
	}
	// Short series pass through.
	if got := downsample(series[:5], 10); len(got) != 5 {
		t.Fatalf("short series = %d", len(got))
	}
	// Degenerate time span.
	same := []timePoint{{At: 5, Value: 1}, {At: 5, Value: 3}}
	if got := downsample(same, 1); len(got) != 1 {
		t.Fatalf("degenerate = %v", got)
	}
}

// Property: RAE and RSE are scale-invariant: scaling both series leaves
// them unchanged.
func TestPropertyErrorScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		obs := make([]float64, n)
		pred := make([]float64, n)
		for i := range obs {
			obs[i] = rng.NormFloat64() * 10
			pred[i] = obs[i] + rng.NormFloat64()
		}
		r1, err1 := rae(pred, obs)
		if err1 != nil {
			return false
		}
		scale := 3.7
		obs2 := make([]float64, n)
		pred2 := make([]float64, n)
		for i := range obs {
			obs2[i] = obs[i] * scale
			pred2[i] = pred[i] * scale
		}
		r2, err2 := rae(pred2, obs2)
		if err2 != nil {
			return false
		}
		if math.Abs(r1-r2) > 1e-9 {
			return false
		}
		s1, _ := rse(pred, obs)
		s2, _ := rse(pred2, obs2)
		return math.Abs(s1-s2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the quantile function is nondecreasing in q and stays within
// the sample range.
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.NormFloat64()
		}
		c := newCDF(samples)
		lo, hi := c.quantile(0), c.quantile(1)
		prev := lo
		for q := 0.0; q <= 1.0; q += 0.05 {
			x := c.quantile(q)
			if x < prev || x < lo || x > hi {
				return false
			}
			prev = x
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
