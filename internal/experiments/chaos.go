package experiments

// Chaos soak: the proof obligation of the network fault-tolerance
// layer. One deterministic tree search runs twice — once against a
// clean local store (the reference bits) and once against a loopback
// remote object store whose every request passes through a seeded
// chaos policy: connection drops, stalls past the client deadline,
// mid-body truncations, 503 bursts, corrupt payloads, and a scheduled
// partition that flaps the remote up and down for whole request
// windows. The fault-tolerance stack underneath the engine — jittered
// retries, per-request deadlines, the circuit breaker, the engine's
// recompute of every read that fails, and the cache file holding the
// write-backs the remote refused — must turn all of that into nothing
// more than extra local compute: the soak FAILS unless the chaotic run
// finishes with bit-identical likelihood and the breaker actually
// tripped (the chaos was real).

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"oocphylo/internal/analysis"
	"oocphylo/internal/iosim"
	"oocphylo/internal/ooc"
	"oocphylo/internal/ooc/remote"
)

// ChaosSoakConfig configures RunChaosSoak.
type ChaosSoakConfig struct {
	// Workload is the shared search workload (defaults as in the tier
	// ablation: 128 taxa).
	Workload SearchWorkloadConfig
	// Chaos is the fault mix. Zero-valued fields get soak defaults: a
	// few percent each of drops, stalls, truncations, 503s and corrupt
	// bodies, plus a partition flap schedule (40 healthy requests, then
	// 12 dropped wholesale, repeating).
	Chaos iosim.ChaosConfig
	// RemoteDeadline bounds each remote attempt (default 250ms — a
	// stalled request trips it instead of hanging the reader).
	RemoteDeadline time.Duration
}

func (c *ChaosSoakConfig) fill() {
	c.Workload.fill()
	ch := &c.Chaos
	if ch.DropProb == 0 && ch.StallProb == 0 && ch.TruncateProb == 0 &&
		ch.ErrorProb == 0 && ch.CorruptProb == 0 {
		ch.DropProb, ch.StallProb, ch.TruncateProb = 0.04, 0.02, 0.02
		ch.ErrorProb, ch.CorruptProb = 0.04, 0.02
	}
	if ch.Stall == 0 {
		ch.Stall = 400 * time.Millisecond // > RemoteDeadline: stalls become timeouts
	}
	if ch.PartitionEvery == 0 && ch.PartitionFor == 0 {
		ch.PartitionEvery, ch.PartitionFor = 40, 12
	}
	if c.RemoteDeadline == 0 {
		c.RemoteDeadline = 250 * time.Millisecond
	}
}

// chaosBreaker trips early and cools down fast, so the soak exercises
// several open/half-open/closed cycles inside one search.
var chaosBreaker = ooc.BreakerConfig{Threshold: 4, Cooldown: 100 * time.Millisecond}

// ChaosSoakResult reports what the soak survived.
type ChaosSoakResult struct {
	// LnL is the final likelihood — identical between arms by
	// construction (the run fails otherwise).
	LnL float64
	// CleanElapsed / ChaosElapsed are the two arms' wall-clocks.
	CleanElapsed, ChaosElapsed time.Duration
	// Chaos counts what the fault injector actually did.
	Chaos iosim.ChaosStats
	// Tier is the chaotic arm's tier counter snapshot (breaker trips,
	// refused write-backs, retries).
	Tier ooc.TierStats
	// Recoveries counts engine-level read recoveries: unreadable
	// (circuit open, retries exhausted) or corrupt vectors converted to
	// recomputes.
	Recoveries int64
}

// RunChaosSoak runs both arms and enforces the acceptance conditions.
// Memory fraction and cache size (small enough that remote traffic, and
// therefore injected faults, actually happen) are the tier ablation's
// cold arm.
func RunChaosSoak(cfg ChaosSoakConfig) (*ChaosSoakResult, error) {
	cfg.fill()
	w, err := newSearchWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	res := &ChaosSoakResult{}

	// Clean arm: plain local backing file, the reference bits.
	clean, err := runTierArm(w, cfg.Workload, ooc.StackSpec{})
	if err != nil {
		return nil, fmt.Errorf("experiments: clean arm: %w", err)
	}
	res.LnL = clean.LnL
	res.CleanElapsed = clean.Elapsed

	// Chaotic arm: loopback remote behind the fault injector and the
	// full fault-tolerance stack — the cache tier trusts what it
	// admits, so a corrupt GET body is only caught by the manager ABOVE
	// the tier, which checks every vector it reads, and the engine's
	// recovery path turns it into a recompute.
	chaos := iosim.NewChaos(cfg.Chaos)
	chaos.Disable() // hold fire while the stack comes up
	srv, err := remote.NewServer(remote.ServerConfig{
		Device: iosim.Device{Name: "wan", Latency: time.Millisecond, Bandwidth: 500e6},
		Chaos:  chaos,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	// The tier retries on its callers' goroutines, two at once (the
	// compute thread's reads and the writer's write-backs), so the
	// seeded jitter source is locked.
	var jitterMu sync.Mutex
	jitterSrc := rand.New(rand.NewSource(cfg.Workload.Seed + 7))
	jitter := func() float64 {
		jitterMu.Lock()
		defer jitterMu.Unlock()
		return jitterSrc.Float64()
	}
	var chaosLnL float64
	_, err = w.run(arm{
		Fraction: tierMemFraction,
		Stack: ooc.StackSpec{
			TieredConfig: ooc.TieredConfig{
				CacheVectors:   cacheVectors(tierColdCacheFraction, w.tree.NumInner()),
				RemoteDeadline: cfg.RemoteDeadline,
				RemoteRetry:    ooc.RetryPolicy{Max: 2, Rand: jitter},
				Breaker:        chaosBreaker,
			},
			URL: srv.ObjectURL("soak"),
		},
	}, func(r *analysis.Run) (err error) {
		chaos.Enable()
		t0 := time.Now()
		if chaosLnL, err = searchWorkload(r.Engine, cfg.Workload); err != nil {
			return fmt.Errorf("chaos arm: %w", err)
		}
		if err = r.Manager.Flush(); err != nil {
			return fmt.Errorf("chaos arm: %w", err)
		}
		res.ChaosElapsed = time.Since(t0)
		res.Recoveries = r.Engine.Stats.Recoveries

		// Recovery phase: lift every fault and probe until the breaker
		// recloses (the workload has stopped, so nothing else feeds the
		// half-open probe).
		chaos.Disable()
		rctx, rcancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer rcancel()
		tier := r.Stack.Tier
		if err := ProbeChaosRecovery(rctx, tier); err != nil {
			return fmt.Errorf("breaker never reclosed after recovery: %w", err)
		}
		res.Tier = tier.Stats()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	res.Chaos = chaos.Stats()

	// Acceptance.
	if chaosLnL != clean.LnL {
		return nil, fmt.Errorf("experiments: chaos soak diverged: %.12f != clean %.12f",
			chaosLnL, clean.LnL)
	}
	injected := res.Chaos.Drops + res.Chaos.Stalls + res.Chaos.Truncations +
		res.Chaos.Errors + res.Chaos.Corruptions + res.Chaos.Partitioned
	if injected == 0 {
		return nil, fmt.Errorf("experiments: chaos soak injected no faults (%d requests) — nothing was proven", res.Chaos.Requests)
	}
	if res.Tier.BreakerOpens == 0 {
		return nil, fmt.Errorf("experiments: breaker never opened despite %d injected faults", injected)
	}
	return res, nil
}

// ProbeChaosRecovery drives a degraded tier back to closed: called
// after Chaos.Disable, it probes until the breaker recloses or ctx
// expires. The soak's search traffic usually does this on its own (any
// remote read or dirty write-back doubles as a probe); this helper is
// for tests that stop the workload while the breaker is still open.
func ProbeChaosRecovery(ctx context.Context, ts *ooc.TieredStore) error {
	for ts.Degraded() {
		if err := ctx.Err(); err != nil {
			return err
		}
		_ = ts.ProbeRemote(ctx)
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// WriteChaosTable renders the soak result.
func WriteChaosTable(wr io.Writer, res *ChaosSoakResult, cfg ChaosSoakConfig) {
	cfg.fill()
	fmt.Fprintf(wr, "Chaos soak: %d taxa, %d sites, seed %d, deadline %v, breaker %d/%v\n",
		cfg.Workload.Taxa, cfg.Workload.Sites, cfg.Chaos.Seed,
		cfg.RemoteDeadline, chaosBreaker.Threshold, chaosBreaker.Cooldown)
	fmt.Fprintf(wr, "  lnL %.6f bit-identical to clean run (clean %v, chaos %v, %.2fx)\n",
		res.LnL, res.CleanElapsed.Round(time.Millisecond), res.ChaosElapsed.Round(time.Millisecond),
		float64(res.ChaosElapsed)/float64(res.CleanElapsed))
	c := res.Chaos
	fmt.Fprintf(wr, "  injected: %d drops, %d stalls, %d truncations, %d 5xx, %d corruptions, %d partitioned of %d requests\n",
		c.Drops, c.Stalls, c.Truncations, c.Errors, c.Corruptions, c.Partitioned, c.Requests)
	t := res.Tier
	fmt.Fprintf(wr, "  survived: %d remote errors, %d retries, %d breaker opens, %d short-circuits\n",
		t.RemoteErrors, t.RemoteRetries, t.BreakerOpens, t.ShortCircuits)
	fmt.Fprintf(wr, "  overflow: %d write-backs refused and kept in the cache file, %d still there at the end\n",
		t.DirtyWritebacks-t.RemoteVectorsWritten, t.Overflow)
	fmt.Fprintf(wr, "  engine: %d read recoveries\n", res.Recoveries)
}
