package service

import (
	"context"
	"slices"
	"sync"
)

// jobQueue holds the queued jobs, one bounded FIFO per priority class, and
// the worker pool's counts under one lock. A job leaves it once — popped by
// a worker, removed by abandon or handed to Close — and whoever takes it out
// finishes it. One condition variable serves both workers waiting for a job
// and blocked pushes waiting for a slot, so every change broadcasts.
type jobQueue struct {
	mu           sync.Mutex
	cond         sync.Cond
	fifo         [2][]*job // indexed by admission.Priority
	size         int       // per-class bound
	live, target int       // workers running, and the pool's target
	closed       bool
}

func newJobQueue(size int) *jobQueue {
	q := &jobQueue{size: size}
	q.cond.L = &q.mu
	return q
}

// queueState is one consistent read of the queue and the pool.
type queueState struct {
	depth        [2]int // queued jobs, indexed by admission.Priority
	live, target int
	closed       bool
}

func (q *jobQueue) state() queueState {
	q.mu.Lock()
	defer q.mu.Unlock()
	return queueState{[2]int{len(q.fifo[0]), len(q.fifo[1])}, q.live, q.target, q.closed}
}

// push appends j to its class's FIFO. On a full FIFO a fail-fast push
// returns ErrQueueFull; a blocking one waits for a slot until ctx ends, then
// returns ctx's error. Both return ErrClosed once the queue is closed.
func (q *jobQueue) push(ctx context.Context, j *job, block bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	p := j.task.prio
	if block {
		defer context.AfterFunc(ctx, q.broadcast)()
		for !q.closed && len(q.fifo[p]) >= q.size && ctx.Err() == nil {
			q.cond.Wait()
		}
	}
	switch {
	case q.closed:
		return ErrClosed
	case len(q.fifo[p]) < q.size:
		q.fifo[p] = append(q.fifo[p], j)
		q.cond.Broadcast()
		return nil
	case block:
		return ctx.Err()
	}
	return ErrQueueFull
}

func (q *jobQueue) broadcast() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.cond.Broadcast()
}

// pop waits for the next job, interactive strictly before batch. Once the
// queue is closed or the pool is over its target it returns nil and counts
// the calling worker out, so workers retire only between jobs.
func (q *jobQueue) pop() *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && q.live <= q.target {
		for p, fifo := range q.fifo {
			if len(fifo) > 0 {
				j := fifo[0]
				q.fifo[p] = slices.Delete(fifo, 0, 1)
				q.cond.Broadcast() // a slot freed for a blocked push
				return j
			}
		}
		q.cond.Wait()
	}
	q.live--
	return nil
}

// remove takes j out of its FIFO and reports whether it was still there.
func (q *jobQueue) remove(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	fifo := q.fifo[j.task.prio]
	i := slices.Index(fifo, j)
	if i < 0 {
		return false
	}
	q.fifo[j.task.prio] = slices.Delete(fifo, i, i+1)
	q.cond.Broadcast()
	return true
}

// resize sets the pool's target and returns how many workers the caller
// must start, counted in wg under the lock so that a Close that follows
// waits for them; a closed queue starts none. Workers over the target
// retire at their next pop.
func (q *jobQueue) resize(target int, wg *sync.WaitGroup) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0
	}
	q.target = target
	n := max(target-q.live, 0)
	q.live += n
	wg.Add(n)
	q.cond.Broadcast()
	return n
}

// close marks the queue closed, wakes every waiter and returns the jobs
// still queued for the caller to finish; ok is false if already closed.
func (q *jobQueue) close() (queued []*job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, false
	}
	q.closed = true
	queued = append(q.fifo[0], q.fifo[1]...)
	q.fifo = [2][]*job{}
	q.cond.Broadcast()
	return queued, true
}
