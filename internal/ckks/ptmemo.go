package ckks

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
)

// PlaintextMemoCap is the byte budget of one PlaintextMemo. A compiled
// model's weights and a bootstrapper's DFT diagonals are compile-time
// constants, so their encodings are worth keeping for the life of the
// model; the cap bounds what that may cost at paper-scale ring degrees,
// where one plaintext is megabytes and a model has thousands of them.
const PlaintextMemoCap = 256 << 20

// PlaintextKey names one encoding of one constant: which constant (an
// index the memo's owner assigns), at which level, at which scale, and
// whether it carries rows over the special primes as well (EncodeQP: the
// masks of a linear transform, which the memo charges for those rows).
type PlaintextKey struct {
	Const int
	Level int
	Scale float64
	QP    bool
}

// PlaintextMemo keeps encoded plaintexts so that a constant is encoded
// once, not on every use. It is safe for concurrent use and fill-once:
// when several goroutines ask for a missing key at the same moment, one
// encodes and the others wait for it. Entries are never evicted. Once
// the byte budget is spent, further keys are not stored: they are encoded
// on every Get, which is what a caller without a memo does. Stored
// plaintexts are shared — callers must treat them as read-only.
type PlaintextMemo struct {
	n        int      // ring degree the plaintexts live in
	moduli   []uint64 // its modulus chain
	special  []uint64 // the special primes, which QP entries carry rows over
	capBytes int64

	mu      sync.Mutex
	entries map[PlaintextKey]*memoEntry
	bytes   int64

	hits, misses atomic.Uint64
}

type memoEntry struct {
	once sync.Once
	pt   *Plaintext
	err  error
}

// MemoStats is a point-in-time reading of a memo's counters. A miss is a
// Get that had to encode: a first touch, or any touch of a key the
// budget had no room for.
type MemoStats struct {
	Entries int
	Bytes   int64
	Hits    uint64
	Misses  uint64
}

// NewPlaintextMemo returns an empty memo for plaintexts of the given
// parameters, holding at most capBytes of them (PlaintextMemoCap outside
// tests; zero stores nothing).
func NewPlaintextMemo(params *Parameters, capBytes int64) *PlaintextMemo {
	return &PlaintextMemo{
		n:        params.N(),
		moduli:   params.Q(),
		special:  params.P(),
		capBytes: capBytes,
		entries:  map[PlaintextKey]*memoEntry{},
	}
}

// Fits reports whether plaintexts in this memo are valid under params:
// an encoding depends on the ring degree and the moduli only, never on
// keys.
func (m *PlaintextMemo) Fits(params *Parameters) bool {
	return m.n == params.N() && slices.Equal(m.moduli, params.Q()) && slices.Equal(m.special, params.P())
}

var errEncodeAborted = errors.New("ckks: plaintext encode did not complete")

// Get returns the plaintext for k, calling encode when the memo does not
// hold it. hit reports that encode did not run. A nil memo holds nothing.
func (m *PlaintextMemo) Get(k PlaintextKey, encode func() (*Plaintext, error)) (pt *Plaintext, hit bool, err error) {
	if m == nil {
		pt, err = encode()
		return pt, false, err
	}
	rows := k.Level + 1
	if k.QP {
		rows += len(m.special)
	}
	size := int64(rows) * int64(m.n) * 8
	m.mu.Lock()
	e := m.entries[k]
	if e == nil {
		if m.bytes+size > m.capBytes {
			m.mu.Unlock()
			m.misses.Add(1)
			pt, err = encode()
			return pt, false, err
		}
		e = &memoEntry{}
		m.entries[k] = e
		m.bytes += size
	}
	m.mu.Unlock()

	hit = true
	e.once.Do(func() {
		hit = false
		// Should encode panic, the entry must not read as an encoded nil.
		e.err = errEncodeAborted
		e.pt, e.err = encode()
	})
	if hit {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return e.pt, hit, e.err
}

// Stats reads the counters.
func (m *PlaintextMemo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Entries: len(m.entries), Bytes: m.bytes, Hits: m.hits.Load(), Misses: m.misses.Load()}
}

// Add sums two readings, for owners that keep more than one memo.
func (s MemoStats) Add(o MemoStats) MemoStats {
	return MemoStats{s.Entries + o.Entries, s.Bytes + o.Bytes, s.Hits + o.Hits, s.Misses + o.Misses}
}
