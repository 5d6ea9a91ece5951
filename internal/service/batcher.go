package service

// Coalescing request batcher — the amortisation layer of the daemon.
// The paper evaluates one PLF stream per process; under concurrent
// clients every request runs on the session's one loop goroutine, so
// they queue behind each other anyway. The batcher turns that queue
// into batches in the style of group commit: it blocks for a request,
// takes every other submission already waiting (up to maxBatch), and
// runs them at once as ONE engine pass. Requests that arrive while a
// pass runs queue behind it and form the next batch. No clock decides
// a flush, so a lone request never waits for company; a request that
// finds the loop idle only yields the processor once, so a burst's
// other submitters, already runnable, can join it. Nothing is lost
// by cutting a batch early: the ancestral vectors one pass validates
// stay valid for the next, as in the paper's incremental traversal.
// Results are bit-identical to running each request as its own fresh
// pass — vector reuse changes what is recomputed, never what is
// computed (the invariant every OOC layer of this repo is built on).
//
// Every request carries a timing ledger (time queued behind the pass
// in flight, batch execution span, batch sequence number and size) so
// clients and the /debug endpoint can see what queueing cost them.

import (
	"context"
	"errors"
	"runtime"
	"time"

	"oocphylo/internal/obs"
)

// ErrSessionClosed is returned for requests that reach a session whose
// loop has been torn down (deleted, or the daemon is shutting down).
var ErrSessionClosed = errors.New("service: session closed")

// maxBatch caps one batch. Evaluates cost nothing extra for riding
// apart, so the cap only bounds how long a park, optimise or resize job
// waits behind one pass.
const maxBatch = 16

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
	limit  int
	submit chan *evalJob
	exec   func([]*evalJob)
	quit   chan struct{}
	done   chan struct{}

	// seq numbers flushed batches, read by the executor's ledger.
	seq int64
}

// newBatcher starts the flush loop with batches of at most limit jobs.
func newBatcher(limit int, exec func([]*evalJob)) *Batcher {
	b := &Batcher{
		limit:  limit,
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

// loop is the group-commit flush loop: take the first request (after
// one yield if the loop was idle), take every submission already
// waiting (up to limit) without blocking, and execute the batch as one
// engine pass at once. The submit channel is unbuffered, so a
// successful Submit send is a rendezvous: every accepted job is part
// of exactly one flushed batch and is always replied to.
func (b *Batcher) loop() {
	defer close(b.done)
	for {
		var first *evalJob
		select {
		case first = <-b.submit: // queued behind the last pass
		default:
			select {
			case first = <-b.submit:
			case <-b.quit:
				return
			}
			// The loop was idle, so this may be the first of a burst
			// whose other submitters are runnable but not yet at the
			// channel: let them reach it. With nothing else runnable
			// this returns at once.
			runtime.Gosched()
		}
		batch := append(make([]*evalJob, 0, b.limit), first)
	drain:
		for len(batch) < b.limit {
			select {
			case j := <-b.submit:
				batch = append(batch, j)
			default:
				break drain
			}
		}
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
