package ring

import "testing"

// TestRescaleAtLevel0ReturnsError: the rescale primitives report level
// exhaustion as an error rather than panicking — callers (the ckks
// evaluator, and transitively the serving layer) propagate it.
func TestRescaleAtLevel0ReturnsError(t *testing.T) {
	r := testRing(t, 5, 3)
	p := r.NewPoly(0)
	out := r.NewPoly(0)
	if err := r.DivRoundByLastModulus(p, out); err == nil {
		t.Fatal("DivRoundByLastModulus at level 0 returned nil error")
	}
	if err := r.DivRoundByLastModulusNTT(p, out); err == nil {
		t.Fatal("DivRoundByLastModulusNTT at level 0 returned nil error")
	}
}

// TestDiscardPools pins the panic-hygiene contract: after DiscardPools,
// a polynomial previously returned to the pool is never handed out
// again — the pool it sits in is orphaned wholesale.
func TestDiscardPools(t *testing.T) {
	r := testRing(t, 5, 3)

	p := r.GetPoly(r.MaxLevel())
	suspectBacking := &p.pooled[0][0]
	r.PutPoly(p)
	r.DiscardPools()

	// The fresh pool is empty, so this Get must allocate new backing.
	q := r.GetPolyNoZero(r.MaxLevel())
	if &q.pooled[0][0] == suspectBacking {
		t.Fatal("pool handed out a discarded polynomial after DiscardPools")
	}
	// The new pool recycles normally.
	r.PutPoly(q)
	if got := r.GetPolyNoZero(r.MaxLevel()); &got.pooled[0][0] != &q.pooled[0][0] {
		// Not guaranteed by sync.Pool in general, but deterministic for a
		// same-goroutine put/get with no GC in between; if this ever
		// flakes the assertion below still holds the real contract.
		t.Log("note: fresh pool did not recycle the last put poly")
	}

	// Row buffers follow the same contract.
	b := r.getBuf()
	r.putBuf(b)
	r.DiscardPools()
	b2 := r.getBuf()
	if len(*b2) != r.N {
		t.Fatalf("getBuf after discard returned %d-len row", len(*b2))
	}
	r.putBuf(b2)
}

// TestPutBufAllocatesNothing: a scratch row goes back to the pool with
// the slice header it came out with, so a get/put round trip allocates
// nothing once the pool holds a row.
func TestPutBufAllocatesNothing(t *testing.T) {
	r := testRing(t, 5, 3)
	if n := testing.AllocsPerRun(100, func() { r.putBuf(r.getBuf()) }); n != 0 {
		t.Fatalf("putBuf(getBuf()) allocates %v times per call", n)
	}
}
