package service

import (
	"context"
	"time"

	"repro/internal/obs"
)

// lease is one request's claim on the serving envelope: a deadline and at
// most one admission slot. The deadline is fixed when the request arrives,
// but nothing runs until a cache miss needs it: the first miss arms the
// deadline (a context timer) and queues for the slot, and every later miss
// of the request reuses both. A request whose lookups all hit arms no timer
// and holds no slot. The request's owner calls release once it has its
// answers. A lease is used by one goroutine at a time.
type lease struct {
	deadline time.Time // zero: Options.Timeout from the first miss
	ctx      context.Context
	cancel   context.CancelFunc
	admitted bool
}

// acquire readies the lease for a miss under ctx and returns the context
// the miss waits under: ctx bounded by the deadline. It fails with
// ErrOverloaded when the admission queue is full, or with the context's
// error when the wait for a slot outlasts the deadline.
func (l *lease) acquire(ctx context.Context, s *Service, parent *obs.Span) (context.Context, error) {
	if l.ctx == nil {
		if l.deadline.IsZero() {
			l.deadline = time.Now().Add(s.opts.Timeout)
		}
		l.ctx, l.cancel = context.WithDeadline(ctx, l.deadline)
	}
	if !l.admitted {
		span := parent.StartChild("admission")
		defer span.Finish()
		if err := s.admit.Acquire(l.ctx); err != nil {
			span.SetAttr("outcome", "rejected")
			return nil, err
		}
		l.admitted = true
	}
	return l.ctx, nil
}

// release frees the admission slot and the deadline's timer, if the lease
// took them.
func (l *lease) release(s *Service) {
	if l.admitted {
		s.admit.Release()
		l.admitted = false
	}
	if l.cancel != nil {
		l.cancel()
		l.cancel = nil
	}
}

// Deadline-budget propagation: a request-scoped time budget is split fairly
// across the sub-queries a request fans out into, instead of every
// sub-query racing the parent deadline. Without the split, item 1 of a
// 64-item batch and item 64 see the same deadline — the early items can
// consume the whole budget and leave the tail guaranteed timeouts; with it,
// each scheduling wave of the worker pool gets an equal slice, so a fixed
// per-item share survives even when earlier items run long.

// minShare is the floor on any budget share: a leg is never handed a
// sub-millisecond deadline, which would be indistinguishable from failure.
const minShare = time.Millisecond

// batchShare returns the per-item time budget for a pool of workers
// answering items sequentially in waves: remaining / ceil(items/workers).
// Shares are floored at minShare; a non-positive remaining (deadline
// already expired) returns the floor and lets the context layer fail the
// call cleanly.
func batchShare(remaining time.Duration, items, workers int) time.Duration {
	if items <= 0 {
		// still floor at minShare: an expired deadline makes remaining
		// negative, and a negative timeout must never leak into WithTimeout
		if remaining < minShare {
			return minShare
		}
		return remaining
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > items {
		workers = items
	}
	waves := (items + workers - 1) / workers
	share := remaining / time.Duration(waves)
	if share < minShare {
		return minShare
	}
	return share
}

// askShare returns the per-leg time budget for a fully concurrent
// federation fan-out: the remaining budget minus a 10% merge reserve, so
// the merge and response encoding still happen inside the request deadline
// even when every leg runs to its limit. Floored at minShare.
func askShare(remaining time.Duration) time.Duration {
	share := remaining - remaining/10
	if share < minShare {
		return minShare
	}
	return share
}

// remainingBudget returns the time left until the context deadline, or fall
// when the context carries none.
func remainingBudget(ctx context.Context, fall time.Duration) time.Duration {
	if dl, ok := ctx.Deadline(); ok {
		return time.Until(dl)
	}
	return fall
}
