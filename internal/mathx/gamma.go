// Package mathx provides the special functions and small numerical
// optimisers the likelihood engine depends on: the log-gamma function,
// the regularised incomplete gamma function, chi-square and normal
// quantiles, the discrete-gamma rate discretisation of Yang (1994),
// a Brent one-dimensional minimiser and a guarded Newton root finder.
//
// All routines are implemented from scratch on top of math and are
// accurate to well beyond the tolerances phylogenetic likelihood
// optimisation requires (absolute errors around 1e-10 or better over
// the parameter ranges that occur in practice).
package mathx

import (
	"errors"
	"math"
)

// LnGamma returns the natural logarithm of the gamma function for x > 0,
// using the Lanczos approximation (g = 7, 9 coefficients).
func LnGamma(x float64) float64 {
	if x <= 0 {
		return math.NaN()
	}
	// Lanczos coefficients for g=7, n=9.
	var lanczos = [...]float64{
		0.99999999999980993,
		676.5203681218851,
		-1259.1392167224028,
		771.32342877765313,
		-176.61502916214059,
		12.507343278686905,
		-0.13857109526572012,
		9.9843695780195716e-6,
		1.5056327351493116e-7,
	}
	if x < 0.5 {
		// Reflection formula: Γ(x)Γ(1-x) = π / sin(πx).
		return math.Log(math.Pi/math.Sin(math.Pi*x)) - LnGamma(1-x)
	}
	x--
	a := lanczos[0]
	t := x + 7.5
	for i := 1; i < len(lanczos); i++ {
		a += lanczos[i] / (x + float64(i))
	}
	return 0.5*math.Log(2*math.Pi) + (x+0.5)*math.Log(t) - t + math.Log(a)
}

// GammaP returns the regularised lower incomplete gamma function
// P(a, x) = γ(a, x) / Γ(a) for a > 0, x >= 0.
//
// It uses the series expansion for x < a+1 and the continued fraction
// for x >= a+1 (Numerical-Recipes style, but independently implemented).
func GammaP(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x < 0:
		return math.NaN()
	case x == 0:
		return 0
	}
	if x < a+1 {
		return gammaPSeries(a, x)
	}
	return 1 - gammaQContinuedFraction(a, x)
}

// GammaQ returns the regularised upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func GammaQ(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x < 0:
		return math.NaN()
	case x == 0:
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQContinuedFraction(a, x)
}

const gammaEps = 1e-15

// gammaMaxIter returns an iteration budget for the series / continued
// fraction. Near x ~ a the term ratio approaches one and convergence
// needs O(sqrt(a)) terms, so the budget scales with sqrt(a).
func gammaMaxIter(a float64) int {
	return 500 + int(12*math.Sqrt(a))
}

func gammaPSeries(a, x float64) float64 {
	ap := a
	sum := 1.0 / a
	del := sum
	for i, n := 0, gammaMaxIter(a); i < n; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-LnGamma(a))
}

func gammaQContinuedFraction(a, x float64) float64 {
	const fpmin = 1e-300
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i, n := 1, gammaMaxIter(a); i <= n; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-LnGamma(a)) * h
}

// NormalQuantile returns the quantile z with Φ(z) = p for the standard
// normal distribution, 0 < p < 1. It uses the Beasley-Springer-Moro
// rational approximation refined by one Newton step on the normal CDF,
// giving ~1e-12 absolute accuracy over (1e-300, 1-1e-16).
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		if p == 0 {
			return math.Inf(-1)
		}
		if p == 1 {
			return math.Inf(1)
		}
		return math.NaN()
	}
	// Acklam's rational approximation.
	var (
		a = [...]float64{-3.969683028665376e+01, 2.209460984245205e+02,
			-2.759285104469687e+02, 1.383577518672690e+02,
			-3.066479806614716e+01, 2.506628277459239e+00}
		b = [...]float64{-5.447609879822406e+01, 1.615858368580409e+02,
			-1.556989798598866e+02, 6.680131188771972e+01,
			-1.328068155288572e+01}
		c = [...]float64{-7.784894002430293e-03, -3.223964580411365e-01,
			-2.400758277161838e+00, -2.549732539343734e+00,
			4.374664141464968e+00, 2.938163982698783e+00}
		d = [...]float64{7.784695709041462e-03, 3.224671290700398e-01,
			2.445134137142996e+00, 3.754408661907416e+00}
	)
	const pLow, pHigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement using the exact CDF via erfc.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// Chi2Quantile returns the quantile of the chi-square distribution with
// df degrees of freedom at probability p (0 < p < 1), i.e. the value x
// such that P(df/2, x/2) = p. df may be non-integral (as required for
// gamma-distribution quantiles via the chi-square relationship).
//
// The implementation starts from the Wilson-Hilferty approximation and
// polishes the root with Newton iterations on the regularised incomplete
// gamma function.
func Chi2Quantile(p, df float64) float64 {
	if math.IsNaN(p) || math.IsNaN(df) || df <= 0 || p < 0 || p >= 1 {
		return math.NaN()
	}
	if p == 0 {
		return 0
	}
	a := df / 2
	// Wilson-Hilferty starting point.
	z := NormalQuantile(p)
	t := 2.0 / (9 * df)
	x := df * math.Pow(1-t+z*math.Sqrt(t), 3)
	if x <= 0 || df < 0.2 {
		// Small-df fallback: x ≈ (p Γ(a+1))^{1/a} * 2.
		x = 2 * math.Exp((math.Log(p)+LnGamma(a+1))/a)
		if x == 0 {
			// The quantile underflows; Newton could not leave zero.
			return 0
		}
	}
	lnGa := LnGamma(a)
	for i := 0; i < 100; i++ {
		h := x / 2
		f := GammaP(a, h) - p
		// d/dx P(a, x/2) = (1/2) * h^{a-1} e^{-h} / Γ(a).
		dlog := (a-1)*math.Log(h) - h - lnGa - math.Ln2
		deriv := math.Exp(dlog)
		if deriv == 0 {
			break
		}
		step := f / deriv
		nx := x - step
		for nx <= 0 {
			step /= 2
			nx = x - step
		}
		x = nx
		if math.Abs(step) < 1e-12*(math.Abs(x)+1e-12) {
			break
		}
	}
	return x
}

// GammaQuantile returns the quantile of a Gamma(shape=a, rate=b)
// distribution at probability p, via the chi-square relationship
// Gamma(a, b) = Chi2(2a) / (2b).
func GammaQuantile(p, shape, rate float64) float64 {
	if shape <= 0 || rate <= 0 {
		return math.NaN()
	}
	return Chi2Quantile(p, 2*shape) / (2 * rate)
}

// ErrBadAlpha is returned by DiscreteGammaRates for non-positive shape
// parameters or category counts below one.
var ErrBadAlpha = errors.New("mathx: discrete gamma requires alpha > 0 and ncat >= 1")

// DiscreteGammaRates computes the ncat mean rates of the discrete-gamma
// model of among-site rate heterogeneity (Yang 1994) for shape parameter
// alpha. The underlying continuous distribution is Gamma(alpha, alpha)
// (mean 1). The returned rates have mean exactly 1 (they are normalised;
// with the mean-of-category construction they already sum to ncat up to
// quantile round-off).
//
// If useMedian is true the median of each category is used instead of the
// mean (cheaper, slightly less accurate; offered by RAxML and PAML alike).
func DiscreteGammaRates(alpha float64, ncat int, useMedian bool) ([]float64, error) {
	if alpha <= 0 || ncat < 1 {
		return nil, ErrBadAlpha
	}
	rates := make([]float64, ncat)
	if ncat == 1 {
		rates[0] = 1
		return rates, nil
	}
	k := float64(ncat)
	if useMedian {
		total := 0.0
		for i := 0; i < ncat; i++ {
			p := (2*float64(i) + 1) / (2 * k)
			rates[i] = GammaQuantile(p, alpha, alpha)
			total += rates[i]
		}
		// Scale so the mean is exactly one.
		for i := range rates {
			rates[i] *= k / total
		}
		return rates, nil
	}
	// Mean-of-category construction: cut points at quantiles i/k, then
	// the mean rate within (x_{i-1}, x_i] is
	//   k * [ I(alpha+1, b*x_i) - I(alpha+1, b*x_{i-1}) ]
	// where I is the regularised incomplete gamma with shape alpha+1 and
	// b = alpha (the rate), using the identity for truncated gamma means.
	cut := make([]float64, ncat+1)
	cut[0] = 0
	cut[ncat] = math.Inf(1)
	for i := 1; i < ncat; i++ {
		cut[i] = GammaQuantile(float64(i)/k, alpha, alpha)
	}
	prev := 0.0
	total := 0.0
	for i := 0; i < ncat; i++ {
		var upper float64
		if i == ncat-1 {
			upper = 1
		} else {
			upper = GammaP(alpha+1, cut[i+1]*alpha)
		}
		rates[i] = (upper - prev) * k
		prev = upper
		total += rates[i]
	}
	// Normalise defensively against quantile round-off.
	for i := range rates {
		rates[i] *= k / total
	}
	return rates, nil
}
