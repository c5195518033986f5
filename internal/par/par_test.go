package par

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestForCoversRangeExactlyOnce checks every index is visited once, for a
// spread of sizes, grains and worker counts (including shrink/grow).
func TestForCoversRangeExactlyOnce(t *testing.T) {
	defer SetWorkers(workersFromEnv())
	for _, w := range []int{1, 2, 4, 8} {
		SetWorkers(w)
		for _, n := range []int{0, 1, 7, 64, 1000, 4097} {
			for _, grain := range []int{0, 1, 3, 100, 5000} {
				hits := make([]int32, n)
				For(n, grain, func(start, end int) {
					if start < 0 || end > n || start >= end {
						t.Errorf("w=%d n=%d grain=%d: bad chunk [%d,%d)", w, n, grain, start, end)
					}
					for i := start; i < end; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("w=%d n=%d grain=%d: index %d visited %d times", w, n, grain, i, h)
					}
				}
			}
		}
	}
}

// TestForNested checks that a For body calling For makes progress even
// when the pool is saturated.
func TestForNested(t *testing.T) {
	defer SetWorkers(workersFromEnv())
	SetWorkers(4)
	var total int64
	For(16, 1, func(start, end int) {
		for i := start; i < end; i++ {
			For(32, 1, func(s, e int) {
				atomic.AddInt64(&total, int64(e-s))
			})
		}
	})
	if total != 16*32 {
		t.Fatalf("nested For executed %d inner iterations, want %d", total, 16*32)
	}
}

// TestForDeterministicChunks checks chunk boundaries depend only on
// (n, grain, workers), which lets callers key per-chunk scratch off start.
func TestForDeterministicChunks(t *testing.T) {
	defer SetWorkers(workersFromEnv())
	SetWorkers(3)
	collect := func() map[int]int {
		m := make(map[int]int)
		var mu32 int32
		For(100, 10, func(start, end int) {
			for !atomic.CompareAndSwapInt32(&mu32, 0, 1) {
			}
			m[start] = end
			atomic.StoreInt32(&mu32, 0)
		})
		return m
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("chunking not deterministic: %v vs %v", a, b)
	}
	for s, e := range a {
		if b[s] != e {
			t.Fatalf("chunking not deterministic at start=%d: %d vs %d", s, e, b[s])
		}
	}
}

func TestDo(t *testing.T) {
	defer SetWorkers(workersFromEnv())
	SetWorkers(2)
	var a, b int32
	Do(func() { atomic.StoreInt32(&a, 1) }, func() { atomic.StoreInt32(&b, 1) })
	if a != 1 || b != 1 {
		t.Fatalf("Do skipped a task: a=%d b=%d", a, b)
	}
}

func TestGrain(t *testing.T) {
	if g := Grain(1 << 20); g != 1 {
		t.Fatalf("Grain(large) = %d, want 1", g)
	}
	if g := Grain(16); g < 2 {
		t.Fatalf("Grain(16) = %d, want a serial-friendly chunk", g)
	}
	if g := Grain(0); g < 1 {
		t.Fatalf("Grain(0) = %d", g)
	}
}

// TestForPanicPropagates: a panic in the loop body — including on a pool
// helper goroutine — must surface on the calling goroutine after every
// participant has drained, and the pool must stay usable afterwards.
func TestForPanicPropagates(t *testing.T) {
	defer SetWorkers(workersFromEnv())
	for _, w := range []int{1, 4, 8} {
		SetWorkers(w)
		var rec any
		func() {
			defer func() { rec = recover() }()
			For(64, 1, func(start, end int) {
				for i := start; i < end; i++ {
					if i == 37 {
						panic("boom at 37")
					}
				}
			})
		}()
		if rec == nil {
			t.Fatalf("workers=%d: panic did not propagate", w)
		}
		if s, ok := rec.(string); !ok || s != "boom at 37" {
			t.Fatalf("workers=%d: propagated %v, want the original panic value", w, rec)
		}

		// The pool survives: a healthy loop still covers its range.
		var n atomic.Int64
		For(128, 1, func(start, end int) { n.Add(int64(end - start)) })
		if n.Load() != 128 {
			t.Fatalf("workers=%d: pool broken after panic: covered %d/128", w, n.Load())
		}
	}
}

// TestDoPanicPropagates covers the Do convenience wrapper.
func TestDoPanicPropagates(t *testing.T) {
	defer SetWorkers(workersFromEnv())
	SetWorkers(4)
	var rec any
	func() {
		defer func() { rec = recover() }()
		Do(
			func() {},
			func() { panic("do-boom") },
		)
	}()
	if rec == nil {
		t.Fatal("Do did not propagate the panic")
	}
}

// TestForNestedNeverDeadlocks sweeps worker counts and nesting depths
// under a short timeout. With two workers the pre-claim For hung here:
// the caller and the pool's only worker each queued a helper for their
// inner loop behind the other and then waited for it to return.
func TestForNestedNeverDeadlocks(t *testing.T) {
	defer SetWorkers(workersFromEnv())
	const reps = 50
	var nest func(depth int, leaves *atomic.Int64)
	nest = func(depth int, leaves *atomic.Int64) {
		if depth == 0 {
			leaves.Add(1)
			return
		}
		// Do is the two-way fan-out the key switch uses above its limb loops.
		limbs := func() {
			For(4, 1, func(s, e int) {
				for i := s; i < e; i++ {
					nest(depth-1, leaves)
				}
			})
		}
		Do(limbs, limbs)
	}
	for w := 1; w <= 8; w++ {
		SetWorkers(w)
		for depth := 1; depth <= 3; depth++ {
			var leaves atomic.Int64
			done := make(chan struct{})
			go func() {
				defer close(done)
				for rep := 0; rep < reps; rep++ {
					nest(depth, &leaves)
				}
			}()
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Fatalf("workers=%d depth=%d: nested For did not complete", w, depth)
			}
			want := int64(reps)
			for d := 0; d < depth; d++ {
				want *= 8
			}
			if leaves.Load() != want {
				t.Fatalf("workers=%d depth=%d: %d leaves ran, want %d", w, depth, leaves.Load(), want)
			}
		}
	}
}
