package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"

	"antace/internal/par"
	"antace/internal/ring"
)

// Plaintext is an encoded (unencrypted) message: a single ring element
// carrying its scale. Plaintexts produced by the Encoder are in NTT
// domain, matching ciphertexts.
type Plaintext struct {
	Value *ring.Poly
	Scale float64
	// ValueP holds the same integer polynomial modulo the special primes.
	// Only EncodeQP sets it: a linear transform multiplies its diagonals
	// into key-switch results that have not been divided by P yet.
	ValueP *ring.Poly
}

// Level returns the plaintext level.
func (p *Plaintext) Level() int { return p.Value.Level() }

// CopyNew returns a deep copy.
func (p *Plaintext) CopyNew() *Plaintext {
	out := &Plaintext{Value: p.Value.CopyNew(), Scale: p.Scale}
	if p.ValueP != nil {
		out.ValueP = p.ValueP.CopyNew()
	}
	return out
}

// Encoder maps complex vectors to CKKS plaintexts through the canonical
// embedding: the special FFT over the orbit of the rotation group
// <5> x <-1> of Z_2N^*. Slot i of a vector of s slots lands on the
// evaluation points so that the Galois element 5^k realises a cyclic
// rotation by k and 2N-1 realises conjugation.
type Encoder struct {
	params   *Parameters
	roots    []complex128 // roots[j] = exp(2*pi*i*j/2N), j in [0, 2N)
	rotGroup []int        // 5^i mod 2N for i in [0, N/2)
}

// NewEncoder creates an encoder for the given parameters.
func NewEncoder(params *Parameters) *Encoder {
	n := params.N()
	m := 2 * n
	e := &Encoder{
		params:   params,
		roots:    make([]complex128, m+1),
		rotGroup: make([]int, n/2),
	}
	for j := 0; j <= m; j++ {
		angle := 2 * math.Pi * float64(j) / float64(m)
		e.roots[j] = cmplx.Rect(1, angle)
	}
	five := 1
	for i := 0; i < n/2; i++ {
		e.rotGroup[i] = five
		five = five * 5 % m
	}
	return e
}

// twiddle returns the root that butterfly j of a special-FFT layer over
// blocks of the given length multiplies by, forward (decoding) or
// inverse. The FFTs and their homomorphic factorisation (dft.go) both
// read it, so the stage matrices cannot drift from the encoder.
func (e *Encoder) twiddle(length, j int, inverse bool) complex128 {
	m := len(e.roots) - 1 // 2N
	lenq := length << 2
	k := e.rotGroup[j] % lenq
	if inverse {
		k = lenq - k
	}
	return e.roots[k*m/lenq]
}

// specialFFTInv applies the inverse special FFT in place (encoding
// direction). size must be a power of two <= N/2.
func (e *Encoder) specialFFTInv(vals []complex128) {
	size := len(vals)
	for length := size; length >= 2; length >>= 1 {
		lenh := length >> 1
		for i := 0; i < size; i += length {
			for j := 0; j < lenh; j++ {
				u := vals[i+j] + vals[i+j+lenh]
				v := vals[i+j] - vals[i+j+lenh]
				v *= e.twiddle(length, j, true)
				vals[i+j] = u
				vals[i+j+lenh] = v
			}
		}
	}
	bitReversePermute(vals)
	inv := complex(1/float64(size), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

// specialFFT applies the forward special FFT in place (decoding
// direction).
func (e *Encoder) specialFFT(vals []complex128) {
	size := len(vals)
	bitReversePermute(vals)
	for length := 2; length <= size; length <<= 1 {
		lenh := length >> 1
		for i := 0; i < size; i += length {
			for j := 0; j < lenh; j++ {
				u := vals[i+j]
				v := vals[i+j+lenh] * e.twiddle(length, j, false)
				vals[i+j] = u + v
				vals[i+j+lenh] = u - v
			}
		}
	}
}

func bitReversePermute(vals []complex128) {
	n := len(vals)
	j := 0
	for i := 1; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
}

// Encode encodes values (len a power of two <= N/2; shorter vectors are
// implicitly padded with zeros to the next power of two) into a plaintext
// at the given level and scale.
func (e *Encoder) Encode(values []complex128, level int, scale float64) (*Plaintext, error) {
	return e.encode(values, level, scale, false)
}

// EncodeQP is Encode for a plaintext that also carries its residues
// modulo the special primes (Plaintext.ValueP).
func (e *Encoder) EncodeQP(values []complex128, level int, scale float64) (*Plaintext, error) {
	return e.encode(values, level, scale, true)
}

func (e *Encoder) encode(values []complex128, level int, scale float64, withP bool) (*Plaintext, error) {
	n := e.params.N()
	slots := nextPow2(len(values))
	if slots > n/2 {
		return nil, fmt.Errorf("ckks: %d values exceed %d slots", len(values), n/2)
	}
	if slots == 0 {
		slots = 1
	}
	vals := make([]complex128, slots)
	copy(vals, values)
	e.specialFFTInv(vals)

	gap := (n / 2) / slots
	scaled := make([]float64, n)
	for i, idx := 0, 0; i < slots; i, idx = i+1, idx+gap {
		scaled[idx] = real(vals[i]) * scale
		scaled[idx+n/2] = imag(vals[i]) * scale
	}
	return e.fromScaledCoeffs(scaled, level, scale, withP), nil
}

// fromScaledCoeffs rounds the scaled coefficients to integers, reduces
// them into RNS form and transforms the result to NTT domain; withP adds
// the rows modulo the special primes.
func (e *Encoder) fromScaledCoeffs(scaled []float64, level int, scale float64, withP bool) *Plaintext {
	ints, small := roundToInt64(scaled)
	var bigs []*big.Int
	if !small {
		bigs = roundToBig(scaled)
	}
	fill := func(r *ring.Ring, level int) *ring.Poly {
		p := r.NewPoly(level)
		if small {
			setInt64Coeffs(r, p, ints)
		} else {
			setBigCoeffs(r, p, bigs)
		}
		r.NTT(p, p)
		return p
	}
	pt := &Plaintext{Value: fill(e.params.RingQ(), level), Scale: scale}
	if withP {
		rP := e.params.RingP()
		pt.ValueP = fill(rP, rP.MaxLevel())
	}
	return pt
}

// EncodeReal is Encode for real-valued vectors.
func (e *Encoder) EncodeReal(values []float64, level int, scale float64) (*Plaintext, error) {
	cv := make([]complex128, len(values))
	for i, v := range values {
		cv[i] = complex(v, 0)
	}
	return e.Encode(cv, level, scale)
}

// EncodeCoeffs encodes raw polynomial coefficients (no embedding): value i
// is placed, scaled, into coefficient i. Used by bootstrapping tests and
// the SlotsToCoeffs path.
func (e *Encoder) EncodeCoeffs(values []float64, level int, scale float64) (*Plaintext, error) {
	n := e.params.N()
	if len(values) > n {
		return nil, fmt.Errorf("ckks: %d coefficients exceed degree %d", len(values), n)
	}
	scaled := make([]float64, n)
	for i, v := range values {
		scaled[i] = v * scale
	}
	return e.fromScaledCoeffs(scaled, level, scale, false), nil
}

// Decode decodes a plaintext into the given number of slots.
func (e *Encoder) Decode(pt *Plaintext, slots int) []complex128 {
	n := e.params.N()
	if slots <= 0 || slots > n/2 {
		slots = n / 2
	}
	coeffPoly := pt.Value.CopyNew()
	e.params.RingQ().INTT(coeffPoly, coeffPoly)
	coeffs := centeredBigCoeffs(e.params.RingQ(), coeffPoly)

	gap := (n / 2) / slots
	vals := make([]complex128, slots)
	for i, idx := 0, 0; i < slots; i, idx = i+1, idx+gap {
		re := bigToFloat(coeffs[idx]) / pt.Scale
		im := bigToFloat(coeffs[idx+n/2]) / pt.Scale
		vals[i] = complex(re, im)
	}
	e.specialFFT(vals)
	return vals
}

// DecodeReal decodes the real parts of the slots.
func (e *Encoder) DecodeReal(pt *Plaintext, slots int) []float64 {
	cv := e.Decode(pt, slots)
	out := make([]float64, len(cv))
	for i, v := range cv {
		out[i] = real(v)
	}
	return out
}

// DecodeCoeffs returns the raw (un-embedded) scaled coefficients.
func (e *Encoder) DecodeCoeffs(pt *Plaintext) []float64 {
	coeffPoly := pt.Value.CopyNew()
	e.params.RingQ().INTT(coeffPoly, coeffPoly)
	coeffs := centeredBigCoeffs(e.params.RingQ(), coeffPoly)
	out := make([]float64, len(coeffs))
	for i, c := range coeffs {
		out[i] = bigToFloat(c) / pt.Scale
	}
	return out
}

// exactInt64 bounds the magnitudes math.Round maps to an int64 exactly.
const exactInt64 = 1 << 53

// roundToInt64 rounds every value to the nearest integer, and reports
// false when one of them is too large for that to be exact in an int64:
// those vectors take the big-integer path.
func roundToInt64(vals []float64) ([]int64, bool) {
	out := make([]int64, len(vals))
	for i, v := range vals {
		if !(math.Abs(v) < exactInt64) {
			return nil, false
		}
		out[i] = int64(math.Round(v))
	}
	return out, true
}

// roundToBig is roundToInt64 without the magnitude limit.
func roundToBig(vals []float64) []*big.Int {
	out := make([]*big.Int, len(vals))
	for i, v := range vals {
		out[i] = new(big.Int)
		scaleToBig(v, out[i])
	}
	return out
}

// scaleToBig rounds v to the nearest integer as a big.Int.
func scaleToBig(v float64, out *big.Int) {
	if math.Abs(v) < exactInt64 {
		out.SetInt64(int64(math.Round(v)))
		return
	}
	bf := new(big.Float).SetPrec(128).SetFloat64(v)
	bf.Add(bf, big.NewFloat(math.Copysign(0.5, v)))
	bf.Int(out)
}

// setInt64Coeffs writes signed integer coefficients into RNS form: the
// residues big.Int.Mod would give, from one machine division each.
func setInt64Coeffs(r *ring.Ring, p *ring.Poly, coeffs []int64) {
	par.For(len(p.Coeffs), par.Grain(r.N), func(start, end int) {
		for i := start; i < end; i++ {
			q := r.Moduli[i]
			row := p.Coeffs[i]
			for j, c := range coeffs {
				if c >= 0 {
					row[j] = uint64(c) % q
				} else if m := uint64(-c) % q; m != 0 {
					row[j] = q - m
				} else {
					row[j] = 0
				}
			}
		}
	})
}

func bigToFloat(v *big.Int) float64 {
	f, _ := new(big.Float).SetInt(v).Float64()
	return f
}

// setBigCoeffs writes signed big integer coefficients into RNS form.
func setBigCoeffs(r *ring.Ring, p *ring.Poly, coeffs []*big.Int) {
	par.For(len(p.Coeffs), par.Grain(r.N), func(start, end int) {
		tmp := new(big.Int)
		q := new(big.Int)
		for i := start; i < end; i++ {
			q.SetUint64(r.Moduli[i])
			row := p.Coeffs[i]
			for j, c := range coeffs {
				tmp.Mod(c, q)
				row[j] = tmp.Uint64()
			}
		}
	})
}

// centeredBigCoeffs CRT-reconstructs the integer coefficients of p
// (coefficient domain) centered in (-Q/2, Q/2].
func centeredBigCoeffs(r *ring.Ring, p *ring.Poly) []*big.Int {
	l := p.Level()
	Q := r.ModulusAtLevel(l)
	half := new(big.Int).Rsh(Q, 1)
	// Precompute CRT weights: w_i = (Q/q_i) * ((Q/q_i)^-1 mod q_i).
	weights := make([]*big.Int, l+1)
	for i := 0; i <= l; i++ {
		qi := new(big.Int).SetUint64(r.Moduli[i])
		qoveri := new(big.Int).Quo(Q, qi)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(qoveri, qi), qi)
		weights[i] = new(big.Int).Mul(qoveri, inv)
	}
	n := p.N()
	out := make([]*big.Int, n)
	tmp := new(big.Int)
	for j := 0; j < n; j++ {
		acc := new(big.Int)
		for i := 0; i <= l; i++ {
			tmp.SetUint64(p.Coeffs[i][j])
			tmp.Mul(tmp, weights[i])
			acc.Add(acc, tmp)
		}
		acc.Mod(acc, Q)
		if acc.Cmp(half) > 0 {
			acc.Sub(acc, Q)
		}
		out[j] = acc
	}
	return out
}

func nextPow2(x int) int {
	if x <= 1 {
		return 1
	}
	p := 1
	for p < x {
		p <<= 1
	}
	return p
}
