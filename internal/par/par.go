// Package par is the shared parallel execution layer for the FHE runtime:
// a fixed worker pool sized from GOMAXPROCS (overridable with the
// ACE_WORKERS environment variable) and a For primitive that distributes
// independent loop iterations — RNS limbs, key-switching digits,
// ciphertext batches — across the pool.
//
// Design constraints, in order:
//
//  1. Determinism. Workers only ever execute disjoint index ranges of a
//     caller-provided body; no reduction order is introduced, so results
//     are bit-identical to the serial loop (the modular arithmetic in
//     internal/ring is exact).
//  2. No deadlock under nesting. A For body may itself call For (the
//     evaluator parallelises over limbs inside digits). Chunks are
//     claimed, not assigned: the calling goroutine claims chunks of its
//     own loop until none is left, and its barrier counts chunks
//     completed, never helpers returned. A helper still sitting in the
//     queue therefore holds no work — when it eventually runs it finds
//     nothing to claim — so completion waits only on chunks some running
//     goroutine has already started, never on a free worker.
//  3. Cheap fallback. Loops whose total work is below a grain threshold
//     run inline on the caller with zero scheduling overhead, keeping the
//     tiny rings used by unit tests fast.
//
// The pool is process-global: limb counts are small (tens), so a single
// pool shared by every Ring and Evaluator wastes no parallelism and
// avoids per-object goroutine churn.
package par

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// pool is a fixed set of worker goroutines consuming closures from a
// buffered channel. Submission is non-blocking: if every worker is busy
// and the queue is full, the caller runs the work itself.
type pool struct {
	tasks chan func()
}

// grow spawns extra worker goroutines consuming from the shared queue.
func (p *pool) grow(extra int) {
	for i := 0; i < extra; i++ {
		go func() {
			for f := range p.tasks {
				f()
			}
		}()
	}
}

// tryRun submits f to the pool without blocking. It reports false when
// the queue is full, in which case the caller must run f (or fold its
// work into its own loop).
func (p *pool) tryRun(f func()) bool {
	select {
	case p.tasks <- f:
		return true
	default:
		return false
	}
}

var (
	mu          sync.Mutex
	numWorkers  int
	poolSize    int // goroutines alive in defaultPool
	defaultPool *pool
)

func init() {
	SetWorkers(workersFromEnv())
}

// workersFromEnv resolves the worker count: ACE_WORKERS if set and
// positive, else GOMAXPROCS.
func workersFromEnv() int {
	if s := os.Getenv("ACE_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Workers returns the current worker count (1 means fully serial).
func Workers() int {
	mu.Lock()
	defer mu.Unlock()
	return numWorkers
}

// SetWorkers sets the degree of parallelism. n < 1 is clamped to 1 (fully
// serial). Intended for tests (the differential serial-vs-parallel suite)
// and for embedders that know better than GOMAXPROCS. The pool only ever
// grows — shrinking just caps how many chunks For dispatches, and the
// surplus goroutines idle on an empty channel — so resizing is safe while
// other goroutines are mid-For.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	mu.Lock()
	defer mu.Unlock()
	numWorkers = n
	want := n - 1 // the calling goroutine is always worker #0
	if want <= poolSize {
		return
	}
	if defaultPool == nil {
		defaultPool = &pool{tasks: make(chan func(), 64)}
	}
	defaultPool.grow(want - poolSize)
	poolSize = want
}

// For executes fn over the half-open range [0, n) split into contiguous
// chunks of at least grain iterations, distributing chunks across the
// worker pool. fn is called as fn(start, end) on disjoint ranges covering
// [0, n) exactly once; chunk boundaries never depend on timing, only on
// (n, grain, Workers()), so any per-chunk scratch is used deterministically.
//
// When the pool is serial, n <= 0, or n <= grain, fn runs inline as a
// single fn(0, n) call. grain < 1 is treated as 1.
//
// A panic in fn is contained: helpers recover it, every participant
// drains out, and the first panic value is re-raised on the calling
// goroutine after the barrier — so callers can recover a parallel loop's
// panic exactly like a serial one, with no helper still running.
func For(n, grain int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	mu.Lock()
	w := numWorkers
	p := defaultPool
	mu.Unlock()
	if w <= 1 || n <= grain || p == nil {
		fn(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	if chunks > w {
		chunks = w
	}
	size := (n + chunks - 1) / chunks
	chunks = (n + size - 1) / size // rounding size up can leave fewer chunks

	l := &loop{n: n, size: size, chunks: chunks, fn: fn, fin: make(chan struct{})}
	for i := 1; i < chunks; i++ {
		if !p.tryRun(l.run) {
			break // saturated: caller and already-dispatched helpers finish the range
		}
	}
	l.run()
	<-l.fin
	if l.panicVal != nil {
		panic(l.panicVal)
	}
}

// loop is one For call's shared state. Participants — the caller and any
// helper a pool worker has picked up — claim chunk indices from next and
// count each finished chunk in done; whoever completes the last chunk
// closes fin, which is the caller's barrier.
type loop struct {
	n, size, chunks int
	fn              func(start, end int)
	next, done      atomic.Int64
	fin             chan struct{}

	// Panic containment: a panic in fn on a pool goroutine would kill the
	// whole process (nothing above a bare worker can recover it), so every
	// participant recovers and parks the first panic value; the caller
	// re-raises it after the barrier. The barrier is what makes recovery
	// at higher layers (vm, serve) sound: when For panics out, no helper
	// is still writing to the caller's buffers.
	panicOnce sync.Once
	panicVal  any
}

// run claims and executes chunks until none is left.
func (l *loop) run() {
	for {
		i := int(l.next.Add(1)) - 1
		if i >= l.chunks {
			return
		}
		l.runChunk(i)
	}
}

func (l *loop) runChunk(i int) {
	finished := 1
	defer func() {
		if rec := recover(); rec != nil {
			l.panicOnce.Do(func() { l.panicVal = rec })
			// Retire every chunk nobody has claimed yet, so siblings exit
			// promptly instead of computing doomed work.
			if claimed := int(l.next.Swap(int64(l.chunks))); claimed < l.chunks {
				finished += l.chunks - claimed
			}
		}
		if int(l.done.Add(int64(finished))) == l.chunks {
			close(l.fin)
		}
	}()
	start := i * l.size
	end := start + l.size
	if end > l.n {
		end = l.n
	}
	l.fn(start, end)
}

// Inline reports whether For(n, grain, fn) would run fn inline on the
// calling goroutine as a single fn(0, n) call. Zero-alloc kernels branch
// on it: a func literal passed to For escapes to the heap even when For
// ends up invoking it inline, so hot callers (the NTT row loops) call a
// named method directly in the serial case and only construct the
// closure when it will actually be dispatched to workers.
func Inline(n, grain int) bool {
	if n <= 0 {
		return true
	}
	if grain < 1 {
		grain = 1
	}
	mu.Lock()
	w := numWorkers
	p := defaultPool
	mu.Unlock()
	return w <= 1 || n <= grain || p == nil
}

// Do runs the given functions, possibly concurrently, and returns when
// all have completed. It is a convenience for small static task sets
// (e.g. the two halves of a key-switch output).
func Do(fns ...func()) {
	if len(fns) == 1 {
		fns[0]()
		return
	}
	For(len(fns), 1, func(start, end int) {
		for i := start; i < end; i++ {
			fns[i]()
		}
	})
}

// minWork is the serial/parallel break-even point in coefficient
// operations per chunk; see Grain. Overridable for tests via SetMinWork.
var minWork int64 = 1 << 13

// SetMinWork overrides the work threshold below which loops stay serial.
// n <= 0 restores the default. Tests use SetMinWork(1) to force parallel
// chunking on the tiny rings they construct; note rings capture their
// grain at construction time, so call this before NewRing/NewParameters.
func SetMinWork(n int) {
	if n <= 0 {
		n = 1 << 13
	}
	atomic.StoreInt64(&minWork, int64(n))
}

// Grain returns a chunk size (in items) such that each chunk carries at
// least minWork units of work, given the per-item cost. It never returns
// less than 1. Ring operations use this to stay serial on the tiny
// degrees exercised by unit tests while splitting real parameter sets
// limb-per-worker.
func Grain(itemCost int) int {
	mw := int(atomic.LoadInt64(&minWork))
	if itemCost <= 0 {
		return mw
	}
	g := mw / itemCost
	if g < 1 {
		g = 1
	}
	return g
}
