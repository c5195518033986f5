package ring

import (
	"sync"

	"antace/internal/par"
)

// Scratch pooling. The CKKS hot path (key switching, hoisted rotations,
// rescaling, bootstrapping) used to allocate fresh coefficient slices for
// every intermediate polynomial — tens of megabytes per ciphertext
// multiplication at real parameter sizes, all garbage within the call.
// Each Ring therefore owns two sync.Pool-backed free lists:
//
//   - a row pool of bare []uint64 scratch rows of length N, used inside
//     limb loops (automorphism permutation buffers, rescale deltas,
//     basis-conversion intermediates);
//   - a Poly pool per level: a level-l polynomial holds exactly l+1
//     contiguous rows, is handed out by GetPoly/GetPolyNoZero and comes
//     back with PutPoly to the pool of the level it was made at (a
//     polynomial truncated since still returns its full backing).
//
// Ownership contract: whoever calls GetPoly must either PutPoly it or
// hand it to a caller that does. Returning a poly twice, or using it
// after PutPoly, is a data race exactly like a double free; the
// -race differential suite guards the disciplined call sites in
// internal/ckks and internal/bootstrap. Polys are zeroed on Get (not on
// Put), so GetPolyNoZero is safe only when every row is fully overwritten
// before being read.
//
// Both pools are safe for concurrent use, as is the Ring itself: all Ring
// methods are either read-only on the receiver or write only to
// caller-provided outputs.

// getBuf returns a scratch row of length N with undefined contents. The
// pool holds the row's slice header as well, so that handing the same
// pointer back to putBuf allocates nothing.
func (r *Ring) getBuf() *[]uint64 {
	if v := r.bufPool.Load().Get(); v != nil {
		return v.(*[]uint64)
	}
	b := make([]uint64, r.N)
	return &b
}

// putBuf returns a scratch row obtained from getBuf.
func (r *Ring) putBuf(b *[]uint64) {
	if len(*b) != r.N {
		return
	}
	r.bufPool.Load().Put(b)
}

// DiscardPools replaces both scratch pools with fresh empty ones. It is
// the panic-recovery hygiene step: a panic that unwound through pooled
// scratch leaves buffers in an unknown state (partially written, already
// returned by defers mid-unwind, or potentially still referenced), so
// instead of auditing them the recovery boundary orphans the entire pool
// and lets the GC collect it. Healthy buffers in flight are released
// into whichever pool is current when their holder calls Put — losing a
// few to the orphaned pool costs one reallocation each, which is noise
// next to a recovered crash. Safe to call concurrently with Get/Put.
func (r *Ring) DiscardPools() {
	r.bufPool.Store(new(sync.Pool))
	pools := make([]sync.Pool, len(r.Moduli))
	r.polyPools.Store(&pools)
}

// GetPoly returns a zeroed polynomial at the given level from the pool.
func (r *Ring) GetPoly(level int) *Poly {
	p := r.GetPolyNoZero(level)
	if par.Inline(level+1, r.grainPW) {
		zeroRows(p, 0, level+1)
		return p
	}
	par.For(level+1, r.grainPW, func(start, end int) { zeroRows(p, start, end) })
	return p
}

func zeroRows(p *Poly, start, end int) {
	for i := start; i < end; i++ {
		row := p.Coeffs[i]
		for j := range row {
			row[j] = 0
		}
	}
}

// GetPolyNoZero returns a pooled polynomial at the given level whose
// coefficients are undefined (leftovers from a previous user). Use only
// when every row will be fully written before it is read.
func (r *Ring) GetPolyNoZero(level int) *Poly {
	if level < 0 || level >= len(r.Moduli) {
		panic("ring: pooled poly level out of range")
	}
	var p *Poly
	if v := (*r.polyPools.Load())[level].Get(); v != nil {
		p = v.(*Poly)
	} else {
		p = r.NewPoly(level)
		p.pooled = p.Coeffs
	}
	p.Coeffs = p.pooled
	return p
}

// PutPoly returns a polynomial obtained from GetPoly/GetPolyNoZero to the
// pool of the level it was made at. Polys not originating from a ring
// pool are ignored, so callers may unconditionally release what they
// were given.
func (r *Ring) PutPoly(p *Poly) {
	if p == nil || p.pooled == nil {
		return
	}
	l := len(p.pooled) - 1
	if l >= len(r.Moduli) || len(p.pooled[0]) != r.N {
		return
	}
	p.Coeffs = p.pooled
	(*r.polyPools.Load())[l].Put(p)
}
