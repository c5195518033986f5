package nt

import "fmt"

// IsPrime reports whether n is prime, using the Miller–Rabin test with a
// base set that is deterministic for all 64-bit integers.
func IsPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	m := NewModulus(n)
	d := n - 1
	r := 0
	for d&1 == 0 {
		d >>= 1
		r++
	}
	// These bases are a deterministic witness set for n < 2^64.
witness:
	for _, a := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		x := ModExp(a, d, m)
		if x == 1 || x == n-1 {
			continue
		}
		for i := 0; i < r-1; i++ {
			x = MulMod(x, x, m)
			if x == n-1 {
				continue witness
			}
		}
		return false
	}
	return true
}

// Factor returns the distinct prime factors of n in ascending order,
// using trial division for small factors and Pollard's rho for the rest.
func Factor(n uint64) []uint64 {
	set := map[uint64]bool{}
	var rec func(uint64)
	rec = func(v uint64) {
		if v == 1 {
			return
		}
		if IsPrime(v) {
			set[v] = true
			return
		}
		d := pollardRho(v)
		rec(d)
		rec(v / d)
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47} {
		for n%p == 0 {
			set[p] = true
			n /= p
		}
	}
	rec(n)
	factors := make([]uint64, 0, len(set))
	for p := range set {
		factors = append(factors, p)
	}
	for i := 1; i < len(factors); i++ { // insertion sort; tiny inputs
		for j := i; j > 0 && factors[j-1] > factors[j]; j-- {
			factors[j-1], factors[j] = factors[j], factors[j-1]
		}
	}
	return factors
}

// pollardRho returns a nontrivial factor of composite n > 1.
func pollardRho(n uint64) uint64 {
	if n&1 == 0 {
		return 2
	}
	m := NewModulus(n)
	for c := uint64(1); ; c++ {
		f := func(x uint64) uint64 { return Add(MulMod(x, x, m), c, n) }
		x, y, d := uint64(2), uint64(2), uint64(1)
		for d == 1 {
			x = f(x)
			y = f(f(y))
			diff := Sub(x, y, n)
			if diff == 0 {
				break // cycle without factor; retry with new c
			}
			d = gcd(diff, n)
		}
		if d != 1 && d != n {
			return d
		}
	}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// PrimitiveRoot returns a generator of the multiplicative group Z_q^* for
// prime q, given the distinct prime factors of q-1.
func PrimitiveRoot(q uint64, factors []uint64) uint64 {
	m := NewModulus(q)
search:
	for g := uint64(2); ; g++ {
		for _, p := range factors {
			if ModExp(g, (q-1)/p, m) == 1 {
				continue search
			}
		}
		return g
	}
}

// RootOfUnity returns a primitive nth root of unity mod prime q.
// q-1 must be divisible by n.
func RootOfUnity(n, q uint64) (uint64, error) {
	if (q-1)%n != 0 {
		return 0, fmt.Errorf("nt: %d does not divide %d-1", n, q)
	}
	g := PrimitiveRoot(q, Factor(q-1))
	m := NewModulus(q)
	psi := ModExp(g, (q-1)/n, m)
	// Sanity: psi^(n/2) must be -1 for even n (primitive, not a smaller root).
	if n%2 == 0 && ModExp(psi, n/2, m) != q-1 {
		return 0, fmt.Errorf("nt: failed to find primitive %dth root mod %d", n, q)
	}
	return psi, nil
}

// GenerateNTTPrimes returns count primes congruent to 1 modulo nthRoot,
// each close to 2^logQ, alternating above and below 2^logQ to keep the
// product near 2^(logQ*count). Primes listed in avoid are skipped, which
// lets callers build disjoint Q and P chains at the same bit size.
// nthRoot must be a power of two.
func GenerateNTTPrimes(logQ, nthRoot uint64, count int, avoid ...uint64) ([]uint64, error) {
	scan, err := NewPrimeScan(logQ, nthRoot)
	if err != nil {
		return nil, err
	}
	skip := make(map[uint64]bool, len(avoid))
	for _, q := range avoid {
		skip[q] = true
	}
	var primes []uint64
	for len(primes) < count {
		q, err := scan.Next()
		if err != nil {
			return nil, err
		}
		if !skip[q] {
			primes = append(primes, q)
		}
	}
	return primes, nil
}

// PrimeScan walks the primes congruent to 1 modulo nthRoot outward from
// 2^logQ in GenerateNTTPrimes' order: 2^logQ + 1, then one step below,
// one above, and so on. Each candidate is tested once, so handing out a
// chain's primes one at a time costs one scan, not one per prime.
type PrimeScan struct {
	logQ, nthRoot, up, down uint64
	below                   bool // the next candidate is down
}

// NewPrimeScan starts a scan around 2^logQ; nthRoot must be a power of
// two.
func NewPrimeScan(logQ, nthRoot uint64) (*PrimeScan, error) {
	if logQ < 10 || logQ > 61 {
		return nil, fmt.Errorf("nt: logQ %d out of range [10, 61]", logQ)
	}
	center := uint64(1) << logQ
	return &PrimeScan{logQ: logQ, nthRoot: nthRoot, up: center + 1, down: center + 1 - nthRoot}, nil
}

// Next returns the scan's next prime.
func (s *PrimeScan) Next() (uint64, error) {
	for {
		if !s.below {
			q := s.up
			s.up += s.nthRoot
			s.below = true
			if IsPrime(q) {
				return q, nil
			}
			continue
		}
		q, ok := s.down, s.down > s.nthRoot
		if ok {
			s.down -= s.nthRoot
		}
		s.below = false
		if s.up >= 1<<62 {
			return 0, fmt.Errorf("nt: exhausted candidates for logQ=%d nthRoot=%d", s.logQ, s.nthRoot)
		}
		if ok && IsPrime(q) {
			return q, nil
		}
	}
}
