package serve

import (
	"context"
	"sync"
	"time"

	"antace/internal/ckks"
)

// job is one inference request in flight: the session whose keys to
// evaluate under, the input ciphertext, and a buffered reply channel so
// the worker never blocks on a handler that already gave up.
type job struct {
	ctx      context.Context
	sess     *session
	ct       *ckks.Ciphertext
	done     chan jobResult
	enqueued time.Time

	// Durability: idemKey is the journal/checkpoint identity of a keyed
	// request (empty for unkeyed ones, which are never journaled), and
	// resume carries the checkpoint a recovered job restarts from (nil
	// to execute from instruction 0).
	idemKey string
	resume  []byte
}

// jobResult carries a finished evaluation back to the handler. On a
// lane-transformed program, stride > 1 and lane say which interleaved
// slots of ct belong to this caller; stride <= 1 is a plain result.
type jobResult struct {
	ct     *ckks.Ciphertext
	lane   int
	stride int
	err    error
}

// batchGroup is the scheduler's unit of work and the only one: one or
// more jobs that share a session and will be evaluated together. A lone
// inference is a one-member group.
type batchGroup struct {
	jobs []*job
}

// scheduler owns the bounded queue and the worker pool. Workers pull
// groups in FIFO order and run exec, which builds a per-group machine
// around the session's keys (the Evaluator is per-goroutine; parameters,
// encoder and bootstrapper are shared read-only). exec settles every
// job's done channel itself.
type scheduler struct {
	queue   chan *batchGroup
	wg      sync.WaitGroup
	exec    func(*batchGroup)
	expired func(*job)
}

func newScheduler(depth, workers int, exec func(*batchGroup), expired func(*job)) *scheduler {
	s := &scheduler{queue: make(chan *batchGroup, depth), exec: exec, expired: expired}
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	for g := range s.queue {
		// A request whose deadline expired while queued is dropped
		// without touching the evaluator: completing doomed work would
		// only delay live requests behind it. In a batched group the
		// expired member is filtered out and the survivors still run —
		// one abandoned caller must not void its window-mates' work.
		live := g.jobs[:0]
		for _, j := range g.jobs {
			if err := j.ctx.Err(); err != nil {
				if s.expired != nil {
					s.expired(j)
				}
				j.done <- jobResult{err: err}
				continue
			}
			live = append(live, j)
		}
		if len(live) == 0 {
			continue
		}
		g.jobs = live
		s.exec(g)
	}
}

// stop closes the queue and waits for the workers to finish everything
// already accepted. The caller must guarantee no further enqueues (the
// server's draining flag, taken under the same lock as the send).
func (s *scheduler) stop() {
	close(s.queue)
	s.wg.Wait()
}
