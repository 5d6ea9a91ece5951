package service

// Coalescing request batcher — the amortisation layer of the daemon.
// The paper evaluates one PLF stream per process; under concurrent
// clients the dominant per-request costs (P-matrix construction, the
// partial traversal toward the evaluation edge, OOC stage-ins) are
// SHARED between requests against the same session: once one request
// has paid for a traversal, every other request in the same engine pass
// rides on the now-valid ancestral vectors and the warm P cache. The
// batcher makes that sharing systematic: concurrent evaluates are
// collected into a batch (up to MaxBatch requests, or until MaxWait
// after the first), then executed as ONE engine pass on the session's
// loop goroutine. Results are bit-identical to running each request as
// its own fresh pass — vector reuse changes what is recomputed, never
// what is computed (the invariant every OOC layer of this repo is built
// on) — so coalescing is purely a throughput lever.
//
// Every request carries a timing ledger (queue wait, batch execution
// span, batch sequence number and size) so clients and the /debug
// endpoint can see what coalescing actually did to their latency.

import (
	"context"
	"errors"
	"time"

	"oocphylo/internal/obs"
)

// ErrSessionClosed is returned for requests that reach a session whose
// loop has been torn down (deleted, or the daemon is shutting down).
var ErrSessionClosed = errors.New("service: session closed")

// Defaults for BatcherConfig.
const (
	DefaultMaxBatch = 16
	DefaultMaxWait  = 2 * time.Millisecond
)

// BatcherConfig sizes the flush loop.
type BatcherConfig struct {
	// MaxBatch flushes a batch as soon as it holds this many requests
	// (default DefaultMaxBatch).
	MaxBatch int
	// MaxWait flushes whatever has been collected this long after the
	// FIRST request of the batch arrived (default DefaultMaxWait). The
	// wait bounds the latency a lone request pays for the chance of
	// being coalesced.
	MaxWait time.Duration
}

func (c *BatcherConfig) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxWait <= 0 {
		c.MaxWait = DefaultMaxWait
	}
}

// evalJob is one enqueued evaluate request plus its reply path. span,
// when non-nil, is the server-side request span: the executor parents
// its engine/store spans under it and fills its cost ledger.
type evalJob struct {
	spec EvalSpec
	span *obs.Span
	enq  time.Time
	// res is filled by the executor; done is closed/sent once afterwards.
	res  EvalReply
	err  error
	done chan struct{}
}

// Batcher coalesces concurrent evaluate submissions into batches and
// hands each batch to exec as a unit. exec must fill every job's res/err
// (the batcher closes each job's done channel after exec returns).
type Batcher struct {
	cfg    BatcherConfig
	submit chan *evalJob
	exec   func([]*evalJob)
	quit   chan struct{}
	done   chan struct{}

	// seq numbers flushed batches, read by the executor's ledger.
	seq int64
}

// newBatcher starts the flush loop.
func newBatcher(cfg BatcherConfig, exec func([]*evalJob)) *Batcher {
	cfg.fill()
	b := &Batcher{
		cfg:    cfg,
		submit: make(chan *evalJob),
		exec:   exec,
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go b.loop()
	return b
}

// Submit enqueues one evaluate request and blocks until its batch has
// executed. Safe from any goroutine.
func (b *Batcher) Submit(spec EvalSpec) (EvalReply, error) {
	return b.SubmitCtx(context.Background(), spec, nil)
}

// SubmitCtx is Submit carrying the request's span (nil = untraced)
// under a request deadline: when ctx expires before the batch replies,
// the caller gets ctx.Err() immediately. The job itself still executes
// with its batch (evaluates are pure, so the orphaned result is simply
// dropped) — the deadline bounds the CALLER's wait, which is what an
// HTTP request timeout means.
func (b *Batcher) SubmitCtx(ctx context.Context, spec EvalSpec, sp *obs.Span) (EvalReply, error) {
	j := &evalJob{spec: spec, span: sp, enq: time.Now(), done: make(chan struct{})}
	select {
	case b.submit <- j:
	case <-b.quit:
		return EvalReply{}, ErrSessionClosed
	case <-ctx.Done():
		return EvalReply{}, ctx.Err()
	}
	select {
	case <-j.done:
		return j.res, j.err
	case <-ctx.Done():
		return EvalReply{}, ctx.Err()
	}
}

// Close stops the flush loop after draining the batch in flight, if
// any. Submissions racing with Close get ErrSessionClosed.
func (b *Batcher) Close() {
	select {
	case <-b.quit: // already closed
		return
	default:
	}
	close(b.quit)
	<-b.done
}

// loop is the size + max-wait flush loop: block for the first request,
// then collect until the batch is full or the deadline set by that
// first arrival expires, then execute the batch as one engine pass.
// The submit channel is unbuffered, so a successful Submit send is a
// rendezvous: every accepted job is part of exactly one flushed batch
// and is always replied to.
func (b *Batcher) loop() {
	defer close(b.done)
	for {
		var first *evalJob
		select {
		case first = <-b.submit:
		case <-b.quit:
			return
		}
		batch := append(make([]*evalJob, 0, b.cfg.MaxBatch), first)
		timer := time.NewTimer(b.cfg.MaxWait)
	collect:
		for len(batch) < b.cfg.MaxBatch {
			select {
			case j := <-b.submit:
				batch = append(batch, j)
			case <-timer.C:
				break collect
			case <-b.quit:
				break collect
			}
		}
		timer.Stop()
		b.seq++
		b.flush(batch)
		select {
		case <-b.quit:
			return
		default:
		}
	}
}

// flush runs exec and releases every waiter, defaulting unset results
// to an executor-level failure so no Submit ever hangs.
func (b *Batcher) flush(batch []*evalJob) {
	b.exec(batch)
	for _, j := range batch {
		if j.res == (EvalReply{}) && j.err == nil {
			j.err = errors.New("service: batch executor dropped the request")
		}
		close(j.done)
	}
}
