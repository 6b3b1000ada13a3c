// The service's worker-token pool: ONE class-aware semaphore is the single
// source of truth for every worker the service may run, whether it is
// serving a whole request or parallelizing inside one.
//
// RunCtx acquires exactly one token (blocking) — that token is the
// request's guarantee of progress, so a burst of requests queues instead
// of exhausting the host. TryExtra borrows additional tokens for
// intra-request parallelism without ever blocking: under light load one
// analysis spreads across the whole budget, under heavy load extras are
// simply denied and the request runs on its one guaranteed token. Because
// borrowing never blocks, batch-size × per-request-workers can exceed the
// budget without deadlock — the failure mode of the two-semaphore design
// this replaces, where a full batch could hold every slot while each item
// waited for intra-request slots that could never free.
//
// Priority classes. Acquisitions carry a Class: interactive (live
// request/response traffic) or sweep (background grid points). A freed
// token always goes to the longest-waiting interactive acquirer first;
// sweep acquirers advance only when no interactive request is waiting.
// Because sweep points re-enter the queue between points (each point is
// one RunCtx), this is preemption at point granularity: a saturating sweep
// yields to interactive traffic one point-duration at a time, without
// ever killing in-flight work — points are idempotent store writes, so
// "preempting" a sweep is just not handing its next point a token until
// the interactive queue drains. Borrowed extras are asymmetric too: a
// sweep-class borrow always leaves one token of headroom for an arriving
// interactive request, so sweeps are denied extras first under
// contention.
//
// Denying or delaying work is safe for correctness because the worker
// budget never changes results (see linalg/parallel.go): it only decides
// how fast a request finishes.
//
// Scope: the budget governs ALL analysis CPU — the sparse/matfree
// operator pipeline, the Lanczos sweeps, replica simulation, request
// materialization, and (since the dense-route unification) the dense
// exact route too: the transition-matrix build and the d(t) evaluation
// sweep thread the same worker budget instead of their former
// GOMAXPROCS-default loops, so one budget truly bounds every goroutine
// the service fans out.
package service

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"logitdyn/internal/obs"
)

// Class is a scheduling priority class for worker-token acquisition.
type Class int

const (
	// ClassInteractive is latency-sensitive request/response traffic
	// (/v1/analyze, /v1/analyze/batch, /v1/simulate). It is the default.
	ClassInteractive Class = iota
	// ClassSweep is background throughput work: grid points of sweep jobs.
	// Sweep acquisitions wait behind every waiting interactive request,
	// and sweep borrows leave interactive headroom.
	ClassSweep
	numClasses
)

// String names the class for metrics labels.
func (c Class) String() string {
	if c == ClassSweep {
		return "sweep"
	}
	return "interactive"
}

// Pool is the service-wide worker-token semaphore with two priority
// classes.
type Pool struct {
	workers int

	// mu guards the token count and the per-class FIFO wait queues.
	// Waiters only ever enqueue when avail == 0, and a released token is
	// handed directly to the head waiter (interactive first), so avail > 0
	// implies both queues are empty.
	mu      sync.Mutex
	avail   int
	queues  [numClasses][]chan struct{}
	waiting [numClasses]int

	inFlight atomic.Int64
	done     atomic.Uint64
	borrowed atomic.Int64
	granted  atomic.Uint64
	// denied counts borrow REQUESTS that got fewer extras than they asked
	// for (not the token shortfall — one starved TryExtra(7) is one denial,
	// matching what the /metrics doc has always claimed).
	denied atomic.Uint64
	// preempted counts sweep-point deferrals: token handoffs where an
	// interactive waiter was served while at least one sweep point was
	// queued behind it.
	preempted atomic.Uint64
}

// NewPool builds a pool with the given worker budget; workers <= 0 selects
// GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, avail: workers}
}

// acquire blocks until a token is free or handed over. Interactive
// acquirers are always served before sweep acquirers.
func (p *Pool) acquire(class Class) {
	p.mu.Lock()
	if p.avail > 0 {
		p.avail--
		p.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	p.queues[class] = append(p.queues[class], ch)
	p.waiting[class]++
	p.mu.Unlock()
	<-ch
}

// releaseToken returns one token: the head interactive waiter gets it,
// else the head sweep waiter, else it goes back to the free count.
func (p *Pool) releaseToken() {
	p.mu.Lock()
	for class := ClassInteractive; class < numClasses; class++ {
		if q := p.queues[class]; len(q) > 0 {
			ch := q[0]
			q[0] = nil
			p.queues[class] = q[1:]
			if len(p.queues[class]) == 0 {
				p.queues[class] = nil
			}
			p.waiting[class]--
			if class == ClassInteractive && p.waiting[ClassSweep] > 0 {
				p.preempted.Add(1)
			}
			p.mu.Unlock()
			close(ch)
			return
		}
	}
	p.avail++
	p.mu.Unlock()
}

// RunCtx blocks until a worker token is free, then runs fn holding it, at
// interactive priority. The time spent blocked on the token is recorded
// as a queue-wait span against ctx's observer/trace. The context does NOT
// cancel the wait — a request that queued keeps its guarantee of progress.
func (p *Pool) RunCtx(ctx context.Context, fn func()) {
	p.RunClassCtx(ctx, ClassInteractive, fn)
}

// RunClassCtx is RunCtx at an explicit priority class.
func (p *Pool) RunClassCtx(ctx context.Context, class Class, fn func()) {
	endWait := obs.StartSpan(ctx, obs.StageQueueWait)
	p.acquire(class)
	endWait()
	p.inFlight.Add(1)
	defer func() {
		p.inFlight.Add(-1)
		p.done.Add(1)
		p.releaseToken()
	}()
	fn()
}

// TryExtra borrows up to max additional worker tokens without blocking, at
// interactive priority, and returns how many it got plus a release
// function (safe to call once, always non-nil). A task holding one Run
// token that wants to fan out to w workers asks for w−1 extras; whatever
// is denied simply runs on the tokens it has. max <= 0 borrows nothing.
func (p *Pool) TryExtra(max int) (got int, release func()) {
	return p.TryExtraClass(ClassInteractive, max)
}

// TryExtraClass is TryExtra at an explicit priority class: a sweep-class
// borrow always leaves at least one free token as headroom for an
// arriving interactive request, so under contention sweeps are the first
// to run un-fanned-out.
func (p *Pool) TryExtraClass(class Class, max int) (got int, release func()) {
	if max > 0 {
		p.mu.Lock()
		avail := p.avail
		if class == ClassSweep {
			avail--
		}
		got = min(avail, max)
		if got < 0 {
			got = 0
		}
		p.avail -= got
		p.mu.Unlock()
	}
	if max > 0 && got < max {
		p.denied.Add(1)
	}
	p.granted.Add(uint64(got))
	p.borrowed.Add(int64(got))
	n := got
	return got, func() {
		p.borrowed.Add(int64(-n))
		for i := 0; i < n; i++ {
			p.releaseToken()
		}
	}
}

// ForClass returns a TokenPool-shaped view of the pool bound to one
// priority class — what sweep evaluators (sweep.DirectEvalScratch, the
// experiment executor) plug in so every point they run acquires at sweep
// priority.
func (p *Pool) ForClass(class Class) *ClassPool { return &ClassPool{p: p, class: class} }

// ClassPool is a class-bound view of a Pool; it satisfies
// sweep.TokenPool.
type ClassPool struct {
	p     *Pool
	class Class
}

// RunCtx runs fn on one blocking token at the bound class, recording the
// queue wait against ctx's trace.
func (c *ClassPool) RunCtx(ctx context.Context, fn func()) { c.p.RunClassCtx(ctx, c.class, fn) }

// TryExtra borrows extras at the bound class.
func (c *ClassPool) TryExtra(max int) (got int, release func()) {
	return c.p.TryExtraClass(c.class, max)
}

// Workers is the underlying pool's budget.
func (c *ClassPool) Workers() int { return c.p.Workers() }

// Workers is the total worker-token budget.
func (p *Pool) Workers() int { return p.workers }

// InFlight is the number of requests currently holding a Run token.
func (p *Pool) InFlight() int64 { return p.inFlight.Load() }

// Waiting is the total queue depth: goroutines blocked in RunCtx right now,
// both classes together.
func (p *Pool) Waiting() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for class := ClassInteractive; class < numClasses; class++ {
		n += int64(p.waiting[class])
	}
	return n
}

// WaitingClass is the queue depth of one priority class.
func (p *Pool) WaitingClass(class Class) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(p.waiting[class])
}

// TokensInUse is the worker-token occupancy (Run tokens plus borrowed
// extras) at this instant.
func (p *Pool) TokensInUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.workers - p.avail
}

// Borrowed is the number of extra tokens currently on loan.
func (p *Pool) Borrowed() int64 { return p.borrowed.Load() }

// ExtraGranted is the cumulative count of extra tokens handed to
// intra-request parallelism; ExtraDenied is the cumulative count of
// borrow requests that received fewer extras than they asked for. High
// denied counts mean the budget saturates on request fan-out alone.
func (p *Pool) ExtraGranted() uint64 { return p.granted.Load() }
func (p *Pool) ExtraDenied() uint64  { return p.denied.Load() }

// Preempted is the cumulative count of sweep points deferred behind
// interactive traffic: token handoffs that served an interactive waiter
// while sweep points were queued.
func (p *Pool) Preempted() uint64 { return p.preempted.Load() }

// Completed is the number of tasks that have finished.
func (p *Pool) Completed() uint64 { return p.done.Load() }
