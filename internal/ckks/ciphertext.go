package ckks

import (
	cryptorand "crypto/rand"

	"antace/internal/ring"
)

// Ciphertext is an RLWE ciphertext: Degree()+1 ring elements in NTT
// domain, with an associated scale. Degree 1 is the normal form; degree 2
// arises from ciphertext-ciphertext multiplication until relinearisation.
type Ciphertext struct {
	Value []*ring.Poly
	Scale float64
}

// NewCiphertext returns a zero ciphertext of the given degree and level,
// its polynomials taken from the ring pool (Release hands them back).
func NewCiphertext(params *Parameters, degree, level int) *Ciphertext {
	ct := &Ciphertext{Value: make([]*ring.Poly, degree+1), Scale: params.DefaultScale()}
	for i := range ct.Value {
		ct.Value[i] = params.RingQ().GetPoly(level)
	}
	return ct
}

// Release returns the ciphertext's pooled polynomials to the ring pool
// of params and clears it. Only the sole holder of a ciphertext may
// release it; polynomials that did not come from the pool are left to
// the garbage collector.
func (ct *Ciphertext) Release(params *Parameters) {
	for _, p := range ct.Value {
		params.RingQ().PutPoly(p)
	}
	ct.Value = nil
}

// Degree returns the ciphertext degree (number of polynomials minus one).
func (ct *Ciphertext) Degree() int { return len(ct.Value) - 1 }

// Level returns the ciphertext level.
func (ct *Ciphertext) Level() int { return ct.Value[0].Level() }

// CopyNew returns a deep copy.
func (ct *Ciphertext) CopyNew() *Ciphertext {
	out := &Ciphertext{Value: make([]*ring.Poly, len(ct.Value)), Scale: ct.Scale}
	for i := range ct.Value {
		out.Value[i] = ct.Value[i].CopyNew()
	}
	return out
}

// Encryptor encrypts plaintexts under a public key (or, if constructed
// from a secret key, symmetrically).
type Encryptor struct {
	params  *Parameters
	pk      *PublicKey
	sk      *SecretKey
	sampler *ring.Sampler
}

// NewEncryptor creates a public-key encryptor.
func NewEncryptor(params *Parameters, pk *PublicKey) *Encryptor {
	return &Encryptor{params: params, pk: pk, sampler: ring.NewSampler(params.RingQ(), randSeed())}
}

// NewEncryptorFromSecretKey creates a symmetric encryptor.
func NewEncryptorFromSecretKey(params *Parameters, sk *SecretKey) *Encryptor {
	return &Encryptor{params: params, sk: sk, sampler: ring.NewSampler(params.RingQ(), randSeed())}
}

func randSeed() *[32]byte {
	var s [32]byte
	if _, err := cryptorand.Read(s[:]); err != nil {
		panic("ckks: crypto/rand failure: " + err.Error())
	}
	return &s
}

// Encrypt encrypts pt at the plaintext's level and scale.
func (e *Encryptor) Encrypt(pt *Plaintext) *Ciphertext {
	rQ := e.params.RingQ()
	level := pt.Level()
	ct := &Ciphertext{Value: []*ring.Poly{rQ.NewPoly(level), rQ.NewPoly(level)}, Scale: pt.Scale}
	if e.pk != nil {
		// (v*b + e0 + m, v*a + e1)
		v := rQ.NewPoly(level)
		e.sampler.Ternary(v)
		rQ.NTT(v, v)
		e0 := rQ.NewPoly(level)
		e1 := rQ.NewPoly(level)
		e.sampler.Gaussian(e0)
		e.sampler.Gaussian(e1)
		rQ.NTT(e0, e0)
		rQ.NTT(e1, e1)
		rQ.MulCoeffs(v, e.pk.B, ct.Value[0])
		rQ.Add(ct.Value[0], e0, ct.Value[0])
		rQ.Add(ct.Value[0], pt.Value, ct.Value[0])
		rQ.MulCoeffs(v, e.pk.A, ct.Value[1])
		rQ.Add(ct.Value[1], e1, ct.Value[1])
		return ct
	}
	// Symmetric: (-(a*s) + e + m, a)
	a := rQ.NewPoly(level)
	e.sampler.Uniform(a)
	err := rQ.NewPoly(level)
	e.sampler.Gaussian(err)
	rQ.NTT(err, err)
	rQ.MulCoeffs(a, e.sk.Q, ct.Value[0])
	rQ.Neg(ct.Value[0], ct.Value[0])
	rQ.Add(ct.Value[0], err, ct.Value[0])
	rQ.Add(ct.Value[0], pt.Value, ct.Value[0])
	ct.Value[1] = a
	return ct
}

// Decryptor recovers plaintexts with the secret key.
type Decryptor struct {
	params *Parameters
	sk     *SecretKey
}

// NewDecryptor creates a decryptor.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// Decrypt computes m = c0 + c1*s (+ c2*s^2 for degree-2 ciphertexts).
func (d *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	rQ := d.params.RingQ()
	level := ct.Level()
	pt := &Plaintext{Value: ct.Value[0].CopyNew(), Scale: ct.Scale}
	sPow := d.sk.Q
	tmp := rQ.NewPoly(level)
	sAcc := d.sk.Q.CopyNew()
	for i := 1; i < len(ct.Value); i++ {
		rQ.MulCoeffs(ct.Value[i], sAcc, tmp)
		rQ.Add(pt.Value, tmp, pt.Value)
		if i+1 < len(ct.Value) {
			rQ.MulCoeffs(sAcc, sPow, sAcc)
		}
	}
	return pt
}
