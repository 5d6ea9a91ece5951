// Package checkpoint persists and restores the state of a running
// analysis: topology with branch lengths, full model parameterisation
// and progress metadata. The paper's closing claim — "given enough
// execution time and disk space, the out-of-core version can be
// deployed to essentially infer trees on datasets of arbitrary size"
// (§4.3) — implies runs long enough that surviving interruption
// matters; this package makes the search driver resumable.
//
// Checkpoints are JSON documents written atomically (temp file +
// rename), so a crash mid-write never corrupts the previous checkpoint.
package checkpoint

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"oocphylo/internal/model"
	"oocphylo/internal/tree"
)

// FormatVersion identifies the checkpoint schema. Version 2 added the
// Search block (exact-resume search progress); version 1 files are
// still read — Load migrates them in place (a v1 checkpoint simply
// has no search progress, so a resume from one restarts the round
// loop at State.Round with fresh counters).
const FormatVersion = 2

// SearchProgress carries the search-loop position needed for exact
// resume: everything search.Progress tracks beyond the tree and model
// themselves. Absent (nil) in v1 checkpoints and in checkpoints of
// non-search runs.
type SearchProgress struct {
	// StartLnL is the post-smoothing likelihood of the original
	// starting tree.
	StartLnL float64 `json:"start_lnl"`
	// LastImproved is the last round whose sweep improved the
	// likelihood by at least Epsilon.
	LastImproved int `json:"last_improved"`
	// MovesApplied and MovesTested are cumulative move counters.
	MovesApplied int `json:"moves_applied"`
	MovesTested  int `json:"moves_tested"`
	// Alpha is the last Γ shape the search optimised (0 = never); the
	// model's own alpha lives in State.Alpha.
	Alpha float64 `json:"alpha,omitempty"`
}

// State is everything needed to resume an analysis.
type State struct {
	// Version is the checkpoint schema version.
	Version int `json:"version"`
	// Newick holds the current tree with branch lengths.
	Newick string `json:"newick"`
	// States, Freqs, Exch, Alpha and Cats reconstruct the model.
	States int       `json:"states"`
	Freqs  []float64 `json:"freqs"`
	Exch   []float64 `json:"exch,omitempty"`
	Alpha  float64   `json:"alpha,omitempty"` // 0 = rate homogeneity
	// AlphaInf records the homogeneous-rates-over-Cats-categories
	// state (model Alpha == +Inf, which JSON cannot carry in Alpha):
	// Restore must still call SetGamma so Cats() — and with it the
	// provider vector length — round-trips.
	AlphaInf bool `json:"alpha_inf,omitempty"`
	Cats     int  `json:"cats"`
	// PInv is the +I proportion (0 = disabled).
	PInv float64 `json:"pinv,omitempty"`
	// LnL and Round record progress for reporting.
	LnL   float64 `json:"lnl"`
	Round int     `json:"round"`
	// Search carries the search-loop position for exact resume (v2;
	// nil in migrated v1 checkpoints and non-search runs).
	Search *SearchProgress `json:"search,omitempty"`
	// Meta carries arbitrary driver annotations (dataset path, seed...).
	Meta map[string]string `json:"meta,omitempty"`
}

// Capture snapshots a live analysis into a State.
func Capture(t *tree.Tree, m *model.Model, lnl float64, round int) *State {
	st := &State{
		Version: FormatVersion,
		Newick:  tree.WriteNewick(t),
		States:  m.States,
		Freqs:   append([]float64(nil), m.Freqs...),
		Exch:    append([]float64(nil), m.Exch...),
		Cats:    m.Cats(),
		LnL:     lnl,
		Round:   round,
	}
	if m.Cats() > 1 {
		// Alpha == +Inf (homogeneous rates over >1 categories) cannot
		// ride in the JSON float — flag it instead of dropping it, or
		// Restore would skip SetGamma and resume with Cats()==1 and a
		// mismatched provider vector length.
		if math.IsInf(m.Alpha, 1) {
			st.AlphaInf = true
		} else {
			st.Alpha = m.Alpha
		}
	}
	st.PInv = m.PInv
	return st
}

// Restore rebuilds the tree and model from the snapshot. Both the
// current version and the v1 schema (a strict subset) are accepted.
// A checkpoint is outside input (-resume, a daemon's parked sessions),
// so the model's shape is checked before anything is sized by it.
func (st *State) Restore() (*tree.Tree, *model.Model, error) {
	if st.Version != 1 && st.Version != FormatVersion {
		return nil, nil, fmt.Errorf("checkpoint: unsupported version %d (want %d)", st.Version, FormatVersion)
	}
	if st.States != 4 && st.States != 20 {
		return nil, nil, fmt.Errorf("checkpoint: %d states; the alphabets have 4 (DNA) or 20 (AA)", st.States)
	}
	if len(st.Freqs) != st.States {
		return nil, nil, fmt.Errorf("checkpoint: %d frequencies for %d states", len(st.Freqs), st.States)
	}
	if st.Cats > model.MaxGammaCats {
		return nil, nil, fmt.Errorf("checkpoint: %d rate categories (at most %d)", st.Cats, model.MaxGammaCats)
	}
	t, err := tree.ParseNewick(st.Newick)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: restoring tree: %w", err)
	}
	exch := st.Exch
	if len(exch) == 0 {
		// Homogeneous exchangeabilities as a fallback.
		exch = make([]float64, st.States*(st.States-1)/2)
		for i := range exch {
			exch[i] = 1
		}
	}
	m, err := model.NewGTR(st.Freqs, exch, st.States)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: restoring model: %w", err)
	}
	if st.Cats > 1 && (st.Alpha > 0 || st.AlphaInf) {
		alpha := st.Alpha
		if st.AlphaInf {
			alpha = math.Inf(1)
		}
		if err := m.SetGamma(alpha, st.Cats); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: restoring gamma: %w", err)
		}
	}
	if st.PInv > 0 {
		if err := m.SetInvariant(st.PInv); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: restoring +I: %w", err)
		}
	}
	return t, m, nil
}

// Save writes the checkpoint atomically and durably: the temp file is
// synced, renamed over path, and the directory synced after the rename.
func Save(path string, st *State) error {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: encoding: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("checkpoint: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: writing: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: syncing: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: committing: %w", err)
	}
	// The rename is atomic but lives in the directory: until the
	// directory is synced, a power cut may leave no checkpoint at all.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: syncing directory: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("checkpoint: syncing directory: %w", err)
	}
	return nil
}

// Load reads a checkpoint.
func Load(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading: %w", err)
	}
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("checkpoint: decoding: %w", err)
	}
	if st.Version == 1 {
		// v1 migration: every v1 field survives unchanged in v2 and the
		// Search block stays nil — the resume then restarts the round
		// loop at st.Round without the exact-progress counters.
		st.Version = FormatVersion
	}
	return &st, nil
}
