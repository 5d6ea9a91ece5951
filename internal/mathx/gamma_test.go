package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestLnGammaKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, 0},
		{2, 0},
		{3, math.Log(2)},
		{4, math.Log(6)},
		{5, math.Log(24)},
		{10, math.Log(362880)},
		{0.5, 0.5 * math.Log(math.Pi)},
		{1.5, math.Log(0.5 * math.Sqrt(math.Pi))},
		{100, 359.1342053695754},
	}
	for _, c := range cases {
		got := LnGamma(c.x)
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("LnGamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestLnGammaRecurrence(t *testing.T) {
	// ln Γ(x+1) = ln Γ(x) + ln x must hold everywhere.
	for _, x := range []float64{0.1, 0.3, 0.9, 1.7, 3.3, 12.5, 77.7, 1234.5} {
		lhs := LnGamma(x + 1)
		rhs := LnGamma(x) + math.Log(x)
		if !almostEqual(lhs, rhs, 1e-11) {
			t.Errorf("recurrence broken at x=%v: %v vs %v", x, lhs, rhs)
		}
	}
}

func TestLnGammaInvalid(t *testing.T) {
	for _, x := range []float64{0, -1, -3.5} {
		if !math.IsNaN(LnGamma(x)) {
			t.Errorf("LnGamma(%v) should be NaN", x)
		}
	}
}

func TestGammaPExponentialIdentity(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.01, 0.5, 1, 2, 5, 20} {
		want := 1 - math.Exp(-x)
		if got := GammaP(1, x); !almostEqual(got, want, 1e-12) {
			t.Errorf("GammaP(1, %v) = %v, want %v", x, got, want)
		}
	}
}

func TestGammaPErfIdentity(t *testing.T) {
	// P(1/2, x) = erf(sqrt(x)).
	for _, x := range []float64{0.05, 0.3, 1, 3, 9} {
		want := math.Erf(math.Sqrt(x))
		if got := GammaP(0.5, x); !almostEqual(got, want, 1e-12) {
			t.Errorf("GammaP(0.5, %v) = %v, want %v", x, got, want)
		}
	}
}

func TestGammaPQComplementary(t *testing.T) {
	for _, a := range []float64{0.2, 0.7, 1, 2.5, 10, 50} {
		for _, x := range []float64{0.001, 0.1, 1, 5, 40, 120} {
			p, q := GammaP(a, x), GammaQ(a, x)
			if !almostEqual(p+q, 1, 1e-12) {
				t.Errorf("P+Q != 1 at a=%v x=%v: %v", a, x, p+q)
			}
		}
	}
}

func TestGammaPEdgeCases(t *testing.T) {
	if GammaP(2, 0) != 0 {
		t.Error("GammaP(a, 0) must be 0")
	}
	if GammaQ(2, 0) != 1 {
		t.Error("GammaQ(a, 0) must be 1")
	}
	if !math.IsNaN(GammaP(0, 1)) || !math.IsNaN(GammaP(-1, 1)) || !math.IsNaN(GammaP(1, -1)) {
		t.Error("invalid arguments should yield NaN")
	}
	if got := GammaP(3, 1e4); !almostEqual(got, 1, 1e-12) {
		t.Errorf("GammaP saturates to 1, got %v", got)
	}
}

func TestGammaPMonotoneProperty(t *testing.T) {
	f := func(aRaw, x1Raw, x2Raw float64) bool {
		a := 0.05 + math.Abs(math.Mod(aRaw, 20))
		x1 := math.Abs(math.Mod(x1Raw, 50))
		x2 := math.Abs(math.Mod(x2Raw, 50))
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		p1, p2 := GammaP(a, x1), GammaP(a, x2)
		return p1 >= -1e-15 && p2 <= 1+1e-15 && p1 <= p2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.84134474606854293, 1}, // Φ(1)
		{0.99, 2.3263478740408408},
		{1e-10, -6.361340902404056},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Abs(math.Mod(raw, 0.9998)) + 1e-4
		if p >= 1 {
			return true
		}
		z := NormalQuantile(p)
		back := 0.5 * math.Erfc(-z/math.Sqrt2)
		return almostEqual(back, p, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("quantiles at 0/1 must be infinite")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("out-of-range p must yield NaN")
	}
}

func TestChi2QuantileKnownValues(t *testing.T) {
	cases := []struct{ p, df, want float64 }{
		{0.95, 1, 3.841458820694124},
		{0.95, 2, 5.991464547107979},
		{0.5, 2, 1.3862943611198906}, // 2 ln 2
		{0.99, 10, 23.209251158954356},
		{0.05, 5, 1.1454762260617692},
		{0.9, 0.5, 1.5007857444736674},
	}
	for _, c := range cases {
		if got := Chi2Quantile(c.p, c.df); !almostEqual(got, c.want, 1e-8) {
			t.Errorf("Chi2Quantile(%v, %v) = %v, want %v", c.p, c.df, got, c.want)
		}
	}
}

func TestChi2QuantileRoundTrip(t *testing.T) {
	f := func(pRaw, dfRaw float64) bool {
		p := math.Abs(math.Mod(pRaw, 0.98)) + 0.01
		df := 0.1 + math.Abs(math.Mod(dfRaw, 60))
		x := Chi2Quantile(p, df)
		if x < 0 || math.IsNaN(x) {
			return false
		}
		return almostEqual(GammaP(df/2, x/2), p, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGammaQuantileRelationship(t *testing.T) {
	// Gamma(shape a, rate b) quantile must invert GammaP(a, b*x).
	for _, a := range []float64{0.3, 0.5, 1, 2, 7} {
		for _, b := range []float64{0.5, 1, 3} {
			for _, p := range []float64{0.1, 0.5, 0.9} {
				x := GammaQuantile(p, a, b)
				if !almostEqual(GammaP(a, b*x), p, 1e-8) {
					t.Errorf("GammaQuantile(%v,%v,%v) round trip failed: x=%v", p, a, b, x)
				}
			}
		}
	}
	if !math.IsNaN(GammaQuantile(0.5, -1, 1)) || !math.IsNaN(GammaQuantile(0.5, 1, 0)) {
		t.Error("invalid shape/rate must yield NaN")
	}
}

func TestDiscreteGammaRatesPAMLReference(t *testing.T) {
	// Reference mean rates for alpha = 0.5, 4 categories, as published by
	// Yang (1994) and reproduced by PAML and RAxML.
	want := []float64{0.033388, 0.251916, 0.820268, 2.894428}
	got, err := DiscreteGammaRates(0.5, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 2e-4) {
			t.Errorf("rate[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDiscreteGammaRatesProperties(t *testing.T) {
	for _, alpha := range []float64{0.05, 0.2, 0.5, 1, 2.7, 10, 100} {
		for _, ncat := range []int{1, 2, 4, 8, 16} {
			for _, median := range []bool{false, true} {
				rates, err := DiscreteGammaRates(alpha, ncat, median)
				if err != nil {
					t.Fatalf("alpha=%v ncat=%d: %v", alpha, ncat, err)
				}
				if len(rates) != ncat {
					t.Fatalf("got %d rates, want %d", len(rates), ncat)
				}
				sum := 0.0
				for i, r := range rates {
					if r < 0 || math.IsNaN(r) {
						t.Fatalf("alpha=%v ncat=%d median=%v: bad rate %v", alpha, ncat, median, r)
					}
					if i > 0 && rates[i] < rates[i-1]-1e-12 {
						t.Fatalf("rates not non-decreasing: %v", rates)
					}
					sum += r
				}
				if !almostEqual(sum/float64(ncat), 1, 1e-9) {
					t.Errorf("alpha=%v ncat=%d median=%v: mean rate %v != 1", alpha, ncat, median, sum/float64(ncat))
				}
			}
		}
	}
}

func TestDiscreteGammaHighAlphaUniform(t *testing.T) {
	// As alpha -> infinity the distribution concentrates at 1, so all
	// category rates approach 1.
	rates, err := DiscreteGammaRates(1e5, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rates {
		if !almostEqual(r, 1, 2e-2) {
			t.Errorf("alpha=1e5: rate %v far from 1", r)
		}
	}
}

func TestDiscreteGammaRatesErrors(t *testing.T) {
	if _, err := DiscreteGammaRates(0, 4, false); err == nil {
		t.Error("alpha=0 must error")
	}
	if _, err := DiscreteGammaRates(-1, 4, false); err == nil {
		t.Error("alpha<0 must error")
	}
	if _, err := DiscreteGammaRates(1, 0, false); err == nil {
		t.Error("ncat=0 must error")
	}
}

// TestDiscreteGammaTinyAlphaTerminates: a shape so small its quantiles
// underflow to zero (a hostile checkpoint or -a can carry one) must
// return finite rates with mean one, not spin in the Newton step.
func TestDiscreteGammaTinyAlphaTerminates(t *testing.T) {
	for _, alpha := range []float64{1e-300, 1e-30} {
		rates, err := DiscreteGammaRates(alpha, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, r := range rates {
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
				t.Fatalf("alpha=%g: rate %v", alpha, r)
			}
			sum += r
		}
		if !almostEqual(sum/4, 1, 1e-9) {
			t.Errorf("alpha=%g: mean rate %v, want 1", alpha, sum/4)
		}
	}
}
