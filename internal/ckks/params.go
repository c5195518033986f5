// Package ckks implements the RNS-CKKS approximate homomorphic encryption
// scheme (Cheon–Kim–Kim–Song with the full-RNS optimisations of
// Cheon–Han–Kim–Kim–Song): encoding via the canonical embedding,
// encryption, and the full evaluator (addition, multiplication,
// relinearisation, rescaling, rotations, conjugation and modulus
// switching) on top of hybrid RNS key switching.
//
// This is the runtime library the ANT-ACE compiler targets (the paper's
// "ACEfhe"). Bootstrapping lives in the sibling package
// antace/internal/bootstrap.
package ckks

import (
	"fmt"
	"math"

	"antace/internal/kswork"
	"antace/internal/nt"
	"antace/internal/ring"
)

// ParametersLiteral is the user-facing description of a CKKS parameter
// set: ring degree 2^LogN, a ciphertext modulus chain with prime bit sizes
// LogQ (LogQ[0] is the "output" prime q0), special-prime bit sizes LogP
// for hybrid key switching, and the default encoding scale 2^LogScale.
// Key switching cuts the chain into digits of len(LogP) primes.
type ParametersLiteral struct {
	LogN     int
	LogQ     []int
	LogP     []int
	LogScale int
}

// Geometry is the key-switching shape of the parameter set, the one the
// work counts and the cost model read: the ring degree and K special
// primes, which NewParameters also makes the digit width.
func (lit ParametersLiteral) Geometry() kswork.Geometry {
	return kswork.Geometry{LogN: lit.LogN, K: len(lit.LogP)}
}

// Parameters is a compiled, validated CKKS parameter set.
type Parameters struct {
	logN     int
	logScale int
	scale    float64
	ringQ    *ring.Ring
	ringP    *ring.Ring
	be       *ring.BasisExtender
	alpha    int // primes per key-switching digit: the special-prime count
	lit      ParametersLiteral
}

// maxLogQP maps log2(N) to the maximum log2(Q*P) that retains 128-bit
// classical security with ternary secrets, following the Homomorphic
// Encryption Standard tables (Albrecht et al.).
var maxLogQP = map[int]int{
	10: 27,
	11: 54,
	12: 109,
	13: 218,
	14: 438,
	15: 881,
	16: 1772,
	17: 3576,
}

// MaxLogQP returns the 128-bit security bound on log2(QP) for ring degree
// 2^logN, or 0 if logN is outside the standardised range.
func MaxLogQP(logN int) int { return maxLogQP[logN] }

// MinLogN returns the smallest logN for which a modulus of logQP bits
// retains 128-bit security.
func MinLogN(logQP int) int {
	for logN := 10; logN <= 17; logN++ {
		if maxLogQP[logN] >= logQP {
			return logN
		}
	}
	return 18 // beyond the standardised table; caller must reject
}

// NewParameters validates and compiles a parameter literal, generating the
// NTT-friendly prime chains.
func NewParameters(lit ParametersLiteral) (*Parameters, error) {
	if lit.LogN < 4 || lit.LogN > 17 {
		return nil, fmt.Errorf("ckks: LogN %d out of supported range [4,17]", lit.LogN)
	}
	if len(lit.LogQ) == 0 {
		return nil, fmt.Errorf("ckks: empty LogQ chain")
	}
	if len(lit.LogP) == 0 {
		return nil, fmt.Errorf("ckks: empty LogP chain (hybrid key switching needs at least one special prime)")
	}
	if lit.LogScale <= 0 {
		return nil, fmt.Errorf("ckks: LogScale must be positive")
	}
	n := 1 << lit.LogN
	qPrimes, pPrimes, err := GeneratePrimes(lit)
	if err != nil {
		return nil, err
	}

	ringQ, err := ring.NewRing(n, qPrimes)
	if err != nil {
		return nil, err
	}
	ringP, err := ring.NewRing(n, pPrimes)
	if err != nil {
		return nil, err
	}

	return &Parameters{
		logN:     lit.LogN,
		logScale: lit.LogScale,
		scale:    math.Exp2(float64(lit.LogScale)),
		ringQ:    ringQ,
		ringP:    ringP,
		be:       ring.NewBasisExtender(ringQ, ringP),
		alpha:    len(pPrimes),
		lit:      lit,
	}, nil
}

// GeneratePrimes deterministically derives the Q and P prime chains for
// a parameter literal: callers that only need the modulus values (the
// compiler's scale planner) can avoid instantiating the rings. Each prime
// is the first of its bit size's scan (nt.PrimeScan) not already in the
// chain, in LogQ then LogP order; one scan per bit size serves them all.
func GeneratePrimes(lit ParametersLiteral) (qPrimes, pPrimes []uint64, err error) {
	nthRoot := uint64(2) << lit.LogN
	scans := map[int]*nt.PrimeScan{}
	used := map[uint64]bool{}
	pick := func(logQ int) (uint64, error) {
		scan := scans[logQ]
		if scan == nil {
			var err error
			if scan, err = nt.NewPrimeScan(uint64(logQ), nthRoot); err != nil {
				return 0, err
			}
			scans[logQ] = scan
		}
		for {
			q, err := scan.Next()
			if err != nil {
				return 0, err
			}
			if !used[q] {
				used[q] = true
				return q, nil
			}
		}
	}
	for _, lq := range lit.LogQ {
		p, err := pick(lq)
		if err != nil {
			return nil, nil, err
		}
		qPrimes = append(qPrimes, p)
	}
	for _, lp := range lit.LogP {
		p, err := pick(lp)
		if err != nil {
			return nil, nil, err
		}
		pPrimes = append(pPrimes, p)
	}
	return qPrimes, pPrimes, nil
}

// LogN returns log2 of the ring degree.
func (p *Parameters) LogN() int { return p.logN }

// N returns the ring degree.
func (p *Parameters) N() int { return p.ringQ.N }

// Slots returns the number of plaintext slots (N/2).
func (p *Parameters) Slots() int { return p.ringQ.N / 2 }

// MaxLevel returns the top ciphertext level.
func (p *Parameters) MaxLevel() int { return p.ringQ.MaxLevel() }

// DefaultScale returns the default encoding scale.
func (p *Parameters) DefaultScale() float64 { return p.scale }

// LogScale returns log2 of the default encoding scale.
func (p *Parameters) LogScale() int { return p.logScale }

// RingQ returns the ciphertext ring.
func (p *Parameters) RingQ() *ring.Ring { return p.ringQ }

// RingP returns the special-modulus ring.
func (p *Parameters) RingP() *ring.Ring { return p.ringP }

// Alpha returns the number of special primes (digit width).
func (p *Parameters) Alpha() int { return p.alpha }

// Q returns the ciphertext prime chain.
func (p *Parameters) Q() []uint64 { return p.ringQ.Moduli }

// P returns the special prime chain.
func (p *Parameters) P() []uint64 { return p.ringP.Moduli }

// LogQP returns the total bit size of the modulus Q*P (rounded up per
// prime).
func (p *Parameters) LogQP() int {
	total := 0.0
	for _, q := range p.ringQ.Moduli {
		total += math.Log2(float64(q))
	}
	for _, q := range p.ringP.Moduli {
		total += math.Log2(float64(q))
	}
	return int(math.Ceil(total))
}

// CheckSecurity reports whether the parameter set retains 128-bit
// security per the HE standard table.
func (p *Parameters) CheckSecurity() error {
	bound, ok := maxLogQP[p.logN]
	if !ok {
		return fmt.Errorf("ckks: no security estimate for LogN=%d", p.logN)
	}
	if got := p.LogQP(); got > bound {
		return fmt.Errorf("ckks: logQP %d exceeds 128-bit bound %d for LogN=%d", got, bound, p.logN)
	}
	return nil
}

// Literal returns the literal this parameter set was compiled from.
func (p *Parameters) Literal() ParametersLiteral { return p.lit }

// BasisExtender exposes the Q<->P conversion engine (used by the
// evaluator and the bootstrapper).
func (p *Parameters) BasisExtender() *ring.BasisExtender { return p.be }

// DiscardScratch orphans the scratch pools of both rings. Recovery
// boundaries call it after catching a panic that unwound through pooled
// buffers: whatever state those buffers were left in, they are never
// recycled into later evaluations. Safe under concurrent use — healthy
// in-flight operations at worst lose their buffers to the GC.
func (p *Parameters) DiscardScratch() {
	p.ringQ.DiscardPools()
	p.ringP.DiscardPools()
}
