// Package model implements time-reversible Markov substitution models
// for the phylogenetic likelihood function: JC69, K80, HKY85 and GTR
// for nucleotides, the Poisson model and user-supplied general
// exchangeability matrices for amino acids, each optionally combined
// with the discrete-Gamma model of among-site rate heterogeneity
// (Yang 1994).
//
// A model exposes the eigendecomposition Q = V·diag(λ)·V⁻¹ of its
// (mean-rate-one normalised) rate matrix, from which the likelihood
// engine builds transition matrices P(rt) = V·exp(λrt)·V⁻¹ per branch
// and per rate category, and the eigen-basis sum tables behind
// analytic branch-length derivatives.
package model

import (
	"errors"
	"fmt"
	"math"

	"oocphylo/internal/linalg"
	"oocphylo/internal/mathx"
)

// Model is a reversible substitution model with discrete-Gamma rates.
// The zero value is not usable; construct via NewGTR and friends.
type Model struct {
	// Name describes the model (e.g. "GTR+G4").
	Name string
	// States is the alphabet size (4 for DNA, 20 for AA).
	States int
	// Freqs holds the equilibrium state frequencies (sum one).
	Freqs []float64
	// Eval, Evec, Ievec hold the eigendecomposition of the normalised
	// rate matrix: Q = Evec · diag(Eval) · Ievec, row-major States×States.
	Eval, Evec, Ievec []float64
	// Alpha is the Gamma shape parameter; +Inf means rate homogeneity.
	Alpha float64
	// Rates holds the Cats() discrete category rates (mean one).
	Rates []float64
	// Exch holds the upper-triangle exchangeabilities the rate matrix
	// was built from (nil for models not built via NewGTR's path).
	Exch []float64
	// PInv is the proportion of invariant sites (the +I mixture
	// component); 0 disables it. See SetInvariant.
	PInv float64

	// gen counts parameter mutations; see Version.
	gen uint64
}

// Version returns a counter that changes whenever the model's
// parameters are mutated through its setters (SetGamma,
// SetExchangeabilities, SetInvariant). Likelihood engines key their
// branch-length transition-matrix caches on it: a version mismatch
// means every cached P(rt) may describe a stale rate matrix or rate
// assignment and must be discarded.
func (m *Model) Version() uint64 { return m.gen }

// Cats returns the number of discrete rate categories (>= 1).
func (m *Model) Cats() int { return len(m.Rates) }

// ErrBadFrequencies is returned for non-positive or non-normalisable
// frequency vectors.
var ErrBadFrequencies = errors.New("model: frequencies must be positive")

// normalizeFreqs validates and rescales frequencies to sum to one.
func normalizeFreqs(freqs []float64, states int) ([]float64, error) {
	if len(freqs) != states {
		return nil, fmt.Errorf("model: %d frequencies for %d states", len(freqs), states)
	}
	sum := 0.0
	for _, f := range freqs {
		if !(f > 0) || math.IsInf(f, 0) {
			return nil, ErrBadFrequencies
		}
		sum += f
	}
	out := make([]float64, states)
	for i, f := range freqs {
		out[i] = f / sum
	}
	return out, nil
}

// NewGTR builds a general time-reversible model over `states` states
// from equilibrium frequencies and the upper-triangle exchangeability
// rates in row order ((0,1), (0,2), ..., (0,k-1), (1,2), ...); for DNA
// that is the usual AC, AG, AT, CG, CT, GT order. All rates must be
// positive. The rate matrix is normalised to one expected substitution
// per unit branch length at equilibrium.
func NewGTR(freqs, exch []float64, states int) (*Model, error) {
	pi, err := normalizeFreqs(freqs, states)
	if err != nil {
		return nil, err
	}
	want := states * (states - 1) / 2
	if len(exch) != want {
		return nil, fmt.Errorf("model: %d exchangeabilities for %d states, want %d", len(exch), states, want)
	}
	for _, r := range exch {
		if !(r > 0) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("model: exchangeabilities must be positive, got %v", r)
		}
	}
	// Build Q: q_ij = s_ij * pi_j (i != j).
	k := states
	q := make([]float64, k*k)
	idx := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			s := exch[idx]
			idx++
			q[i*k+j] = s * pi[j]
			q[j*k+i] = s * pi[i]
		}
	}
	mu := 0.0
	for i := 0; i < k; i++ {
		row := 0.0
		for j := 0; j < k; j++ {
			if j != i {
				row += q[i*k+j]
			}
		}
		q[i*k+i] = -row
		mu += pi[i] * row
	}
	if !(mu > 0) {
		return nil, errors.New("model: degenerate rate matrix")
	}
	for i := range q {
		q[i] /= mu
	}
	m := &Model{
		Name:   fmt.Sprintf("GTR%d", states),
		States: k,
		Freqs:  pi,
		Alpha:  math.Inf(1),
		Rates:  []float64{1},
		Exch:   append([]float64(nil), exch...),
	}
	if err := m.decompose(q); err != nil {
		return nil, err
	}
	return m, nil
}

// SetExchangeabilities re-parameterises the reversible rate matrix with
// new upper-triangle exchangeabilities, keeping frequencies and the
// Gamma configuration. Likelihood engines sharing this model must
// invalidate their ancestral vectors afterwards.
func (m *Model) SetExchangeabilities(exch []float64) error {
	rebuilt, err := NewGTR(m.Freqs, exch, m.States)
	if err != nil {
		return err
	}
	m.Exch = rebuilt.Exch
	m.Eval = rebuilt.Eval
	m.Evec = rebuilt.Evec
	m.Ievec = rebuilt.Ievec
	m.gen++
	return nil
}

// decompose eigendecomposes the reversible Q via the √π similarity
// transform: S = D·Q·D⁻¹ with D = diag(√π) is symmetric, S = U·Λ·Uᵀ,
// and then V = D⁻¹·U, V⁻¹ = Uᵀ·D.
func (m *Model) decompose(q []float64) error {
	k := m.States
	d := make([]float64, k)
	for i, f := range m.Freqs {
		d[i] = math.Sqrt(f)
	}
	s := make([]float64, k*k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			s[i*k+j] = q[i*k+j] * d[i] / d[j]
		}
	}
	eval, u, err := linalg.SymmetricEigen(s, k)
	if err != nil {
		return fmt.Errorf("model: eigendecomposition failed: %w", err)
	}
	m.Eval = eval
	m.Evec = make([]float64, k*k)
	m.Ievec = make([]float64, k*k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			m.Evec[i*k+j] = u[i*k+j] / d[i]
			m.Ievec[i*k+j] = u[j*k+i] * d[j]
		}
	}
	return nil
}

// NewJC returns the Jukes-Cantor model generalised to `states` states
// (equal frequencies, equal exchangeabilities). For states == 20 this
// is the Poisson amino-acid model.
func NewJC(states int) (*Model, error) {
	if states < 2 {
		return nil, fmt.Errorf("model: need at least 2 states, got %d", states)
	}
	freqs := make([]float64, states)
	for i := range freqs {
		freqs[i] = 1 / float64(states)
	}
	exch := make([]float64, states*(states-1)/2)
	for i := range exch {
		exch[i] = 1
	}
	m, err := NewGTR(freqs, exch, states)
	if err != nil {
		return nil, err
	}
	if states == 4 {
		m.Name = "JC69"
	} else {
		m.Name = fmt.Sprintf("Poisson%d", states)
	}
	return m, nil
}

// NewK80 returns the Kimura two-parameter DNA model with
// transition/transversion ratio kappa (equal base frequencies).
func NewK80(kappa float64) (*Model, error) {
	return newHKYLike([]float64{0.25, 0.25, 0.25, 0.25}, kappa, "K80")
}

// NewHKY returns the HKY85 DNA model with the given base frequencies
// (order A, C, G, T) and transition/transversion ratio kappa.
func NewHKY(freqs []float64, kappa float64) (*Model, error) {
	return newHKYLike(freqs, kappa, "HKY85")
}

func newHKYLike(freqs []float64, kappa float64, name string) (*Model, error) {
	if !(kappa > 0) {
		return nil, fmt.Errorf("model: kappa must be positive, got %v", kappa)
	}
	// Exchangeability order AC, AG, AT, CG, CT, GT; transitions are
	// A<->G and C<->T.
	exch := []float64{1, kappa, 1, 1, kappa, 1}
	m, err := NewGTR(freqs, exch, 4)
	if err != nil {
		return nil, err
	}
	m.Name = name
	return m, nil
}

// MaxGammaCats bounds the discrete-Gamma category count. No analysis
// comes near it; it caps what outside input (a session spec, a
// checkpoint) can make a model allocate, and every model within it can
// be checkpointed and restored.
const MaxGammaCats = 256

// SetGamma installs a discrete-Gamma rate heterogeneity model with the
// given shape alpha and category count. ncat == 1 restores homogeneity.
// alpha == +Inf is the α→∞ limit of the Gamma: every category rate is
// exactly 1 (rate homogeneity spread over ncat categories), a state
// the checkpoint layer round-trips explicitly.
func (m *Model) SetGamma(alpha float64, ncat int) error {
	if ncat < 1 || ncat > MaxGammaCats {
		return fmt.Errorf("model: %d gamma categories (want 1 to %d)", ncat, MaxGammaCats)
	}
	if math.IsInf(alpha, 1) {
		rates := make([]float64, ncat)
		for i := range rates {
			rates[i] = 1
		}
		m.Alpha = alpha
		m.Rates = rates
		m.gen++
		return nil
	}
	rates, err := mathx.DiscreteGammaRates(alpha, ncat, false)
	if err != nil {
		return err
	}
	m.Alpha = alpha
	m.Rates = rates
	m.gen++
	return nil
}

// SetInvariant sets the proportion of invariant sites p in [0, 1): the
// site likelihood becomes (1-p)·L_Γ + p·L_inv, where L_inv is the
// equilibrium probability of the pattern being constant. The discrete
// rates keep mean one over the variable component (RAxML's convention);
// p = 0 disables the mixture.
func (m *Model) SetInvariant(p float64) error {
	if p < 0 || p >= 1 || math.IsNaN(p) {
		return fmt.Errorf("model: invariant proportion %v outside [0, 1)", p)
	}
	m.PInv = p
	m.gen++
	return nil
}

// PMatrix fills dst (len >= States*States) with the transition matrix
// P(rate * t) = V·exp(Λ·rate·t)·V⁻¹ for branch length t and rate
// multiplier rate.
func (m *Model) PMatrix(dst []float64, t, rate float64) {
	k := m.States
	rt := t * rate
	// tmp = V * diag(exp(lambda * rt)) folded into the multiply.
	for i := 0; i < k; i++ {
		di := dst[i*k : (i+1)*k]
		for j := range di {
			di[j] = 0
		}
		for l := 0; l < k; l++ {
			w := m.Evec[i*k+l] * math.Exp(m.Eval[l]*rt)
			if w == 0 {
				continue
			}
			iv := m.Ievec[l*k : (l+1)*k]
			for j := 0; j < k; j++ {
				di[j] += w * iv[j]
			}
		}
		// Clamp tiny negative round-off; probabilities must be >= 0.
		for j := range di {
			if di[j] < 0 {
				di[j] = 0
			}
		}
	}
}

// PMatrices fills dst (len >= Cats()*States*States) with one transition
// matrix per rate category for branch length t, category-major.
func (m *Model) PMatrices(dst []float64, t float64) {
	k2 := m.States * m.States
	for c, r := range m.Rates {
		m.PMatrix(dst[c*k2:(c+1)*k2], t, r)
	}
}

// Clone returns an independent copy of the model (safe to mutate the
// Gamma parameters of one without affecting the other).
func (m *Model) Clone() *Model {
	c := *m
	c.Freqs = append([]float64(nil), m.Freqs...)
	c.Eval = append([]float64(nil), m.Eval...)
	c.Evec = append([]float64(nil), m.Evec...)
	c.Ievec = append([]float64(nil), m.Ievec...)
	c.Rates = append([]float64(nil), m.Rates...)
	c.Exch = append([]float64(nil), m.Exch...)
	return &c
}
