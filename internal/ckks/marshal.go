package ckks

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"antace/internal/ring"
)

// Binary serialization for the client/server boundary of the threat
// model (Figure 2 of the paper): the client ships an encrypted image and
// the public evaluation keys to the server; the server returns the
// encrypted result. The format is little-endian and versioned.

const marshalMagic = 0xACE0

// putHeader writes magic, version and a kind tag.
func putHeader(buf []byte, kind uint16) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, marshalMagic)
	buf = binary.LittleEndian.AppendUint16(buf, 1)
	return binary.LittleEndian.AppendUint16(buf, kind)
}

func checkHeader(data []byte, kind uint16) ([]byte, error) {
	if len(data) < 6 {
		return nil, fmt.Errorf("ckks: truncated header")
	}
	if binary.LittleEndian.Uint16(data) != marshalMagic {
		return nil, fmt.Errorf("ckks: bad magic")
	}
	if v := binary.LittleEndian.Uint16(data[2:]); v != 1 {
		return nil, fmt.Errorf("ckks: unsupported version %d", v)
	}
	if k := binary.LittleEndian.Uint16(data[4:]); k != kind {
		return nil, fmt.Errorf("ckks: wrong object kind %d, want %d", k, kind)
	}
	return data[6:], nil
}

const (
	kindCiphertext uint16 = iota + 1
	kindPlaintext
	kindPublicKey
	kindSwitchingKey
	kindRelinearizationKey
	kindGaloisKey
	kindEvaluationKeySet
	kindParams
)

// appendPoly serializes an RNS polynomial.
func appendPoly(buf []byte, p *ring.Poly) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Coeffs)))
	if len(p.Coeffs) > 0 {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Coeffs[0])))
	} else {
		buf = binary.LittleEndian.AppendUint32(buf, 0)
	}
	for _, row := range p.Coeffs {
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	return buf
}

func readPoly(data []byte) (*ring.Poly, []byte, error) {
	if len(data) < 8 {
		return nil, nil, fmt.Errorf("ckks: truncated polynomial header")
	}
	rows := int(binary.LittleEndian.Uint32(data))
	n := int(binary.LittleEndian.Uint32(data[4:]))
	data = data[8:]
	if rows < 0 || rows > 64 || n < 0 || n > 1<<20 {
		return nil, nil, fmt.Errorf("ckks: implausible polynomial dimensions %dx%d", rows, n)
	}
	need := rows * n * 8
	if len(data) < need {
		return nil, nil, fmt.Errorf("ckks: truncated polynomial body (%d < %d)", len(data), need)
	}
	p := &ring.Poly{Coeffs: make([][]uint64, rows)}
	for i := 0; i < rows; i++ {
		row := make([]uint64, n)
		for j := 0; j < n; j++ {
			row[j] = binary.LittleEndian.Uint64(data[8*(i*n+j):])
		}
		p.Coeffs[i] = row
	}
	return p, data[need:], nil
}

// MarshalBinary serializes the ciphertext.
func (ct *Ciphertext) MarshalBinary() ([]byte, error) {
	buf := putHeader(nil, kindCiphertext)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ct.Scale))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ct.Value)))
	for _, p := range ct.Value {
		buf = appendPoly(buf, p)
	}
	return buf, nil
}

// UnmarshalBinary deserializes a ciphertext.
func (ct *Ciphertext) UnmarshalBinary(data []byte) error {
	rest, err := checkHeader(data, kindCiphertext)
	if err != nil {
		return err
	}
	if len(rest) < 12 {
		return fmt.Errorf("ckks: truncated ciphertext")
	}
	ct.Scale = math.Float64frombits(binary.LittleEndian.Uint64(rest))
	count := int(binary.LittleEndian.Uint32(rest[8:]))
	rest = rest[12:]
	if count < 1 || count > 4 {
		return fmt.Errorf("ckks: implausible ciphertext degree %d", count-1)
	}
	ct.Value = make([]*ring.Poly, count)
	for i := range ct.Value {
		var p *ring.Poly
		p, rest, err = readPoly(rest)
		if err != nil {
			return err
		}
		ct.Value[i] = p
	}
	if len(rest) != 0 {
		return fmt.Errorf("ckks: %d trailing bytes", len(rest))
	}
	return nil
}

// MarshalBinary serializes the plaintext.
func (pt *Plaintext) MarshalBinary() ([]byte, error) {
	buf := putHeader(nil, kindPlaintext)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pt.Scale))
	return appendPoly(buf, pt.Value), nil
}

// UnmarshalBinary deserializes a plaintext.
func (pt *Plaintext) UnmarshalBinary(data []byte) error {
	rest, err := checkHeader(data, kindPlaintext)
	if err != nil {
		return err
	}
	if len(rest) < 8 {
		return fmt.Errorf("ckks: truncated plaintext")
	}
	pt.Scale = math.Float64frombits(binary.LittleEndian.Uint64(rest))
	p, rest, err := readPoly(rest[8:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("ckks: %d trailing bytes", len(rest))
	}
	pt.Value = p
	return nil
}

// MarshalBinary serializes the public key.
func (pk *PublicKey) MarshalBinary() ([]byte, error) {
	buf := putHeader(nil, kindPublicKey)
	buf = appendPoly(buf, pk.B)
	return appendPoly(buf, pk.A), nil
}

// UnmarshalBinary deserializes a public key.
func (pk *PublicKey) UnmarshalBinary(data []byte) error {
	rest, err := checkHeader(data, kindPublicKey)
	if err != nil {
		return err
	}
	b, rest, err := readPoly(rest)
	if err != nil {
		return err
	}
	a, rest, err := readPoly(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("ckks: %d trailing bytes", len(rest))
	}
	pk.B, pk.A = b, a
	return nil
}

// maxSwitchingKeyDigits bounds the digit count accepted off the wire; real
// parameter sets use dnum <= len(LogQ) <= 64.
const maxSwitchingKeyDigits = 64

// appendSwitchingKeyBody serializes a switching key without a header, so
// the same body encoding nests inside relinearization keys, Galois keys
// and the evaluation-key bundle.
func appendSwitchingKeyBody(buf []byte, swk *SwitchingKey) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(swk.BQ)))
	for d := range swk.BQ {
		buf = appendPoly(buf, swk.BQ[d])
		buf = appendPoly(buf, swk.BP[d])
		buf = appendPoly(buf, swk.AQ[d])
		buf = appendPoly(buf, swk.AP[d])
	}
	return buf
}

func readSwitchingKeyBody(data []byte) (*SwitchingKey, []byte, error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("ckks: truncated switching key")
	}
	dnum := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if dnum < 1 || dnum > maxSwitchingKeyDigits {
		return nil, nil, fmt.Errorf("ckks: implausible switching-key digit count %d", dnum)
	}
	swk := &SwitchingKey{
		BQ: make([]*ring.Poly, dnum), BP: make([]*ring.Poly, dnum),
		AQ: make([]*ring.Poly, dnum), AP: make([]*ring.Poly, dnum),
	}
	var err error
	for d := 0; d < dnum; d++ {
		for _, dst := range []*[]*ring.Poly{&swk.BQ, &swk.BP, &swk.AQ, &swk.AP} {
			if (*dst)[d], data, err = readPoly(data); err != nil {
				return nil, nil, fmt.Errorf("ckks: switching key digit %d: %w", d, err)
			}
		}
	}
	return swk, data, nil
}

// MarshalBinary serializes the switching key.
func (swk *SwitchingKey) MarshalBinary() ([]byte, error) {
	return appendSwitchingKeyBody(putHeader(nil, kindSwitchingKey), swk), nil
}

// UnmarshalBinary deserializes a switching key.
func (swk *SwitchingKey) UnmarshalBinary(data []byte) error {
	rest, err := checkHeader(data, kindSwitchingKey)
	if err != nil {
		return err
	}
	k, rest, err := readSwitchingKeyBody(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("ckks: %d trailing bytes", len(rest))
	}
	*swk = *k
	return nil
}

// MarshalBinary serializes the relinearization key.
func (rlk *RelinearizationKey) MarshalBinary() ([]byte, error) {
	return appendSwitchingKeyBody(putHeader(nil, kindRelinearizationKey), &rlk.SwitchingKey), nil
}

// UnmarshalBinary deserializes a relinearization key.
func (rlk *RelinearizationKey) UnmarshalBinary(data []byte) error {
	rest, err := checkHeader(data, kindRelinearizationKey)
	if err != nil {
		return err
	}
	k, rest, err := readSwitchingKeyBody(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("ckks: %d trailing bytes", len(rest))
	}
	rlk.SwitchingKey = *k
	return nil
}

func appendGaloisKeyBody(buf []byte, gk *GaloisKey) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, gk.GaloisElement)
	return appendSwitchingKeyBody(buf, &gk.SwitchingKey)
}

func readGaloisKeyBody(data []byte) (*GaloisKey, []byte, error) {
	if len(data) < 8 {
		return nil, nil, fmt.Errorf("ckks: truncated Galois key")
	}
	gk := &GaloisKey{GaloisElement: binary.LittleEndian.Uint64(data)}
	swk, rest, err := readSwitchingKeyBody(data[8:])
	if err != nil {
		return nil, nil, err
	}
	gk.SwitchingKey = *swk
	return gk, rest, nil
}

// MarshalBinary serializes the Galois key.
func (gk *GaloisKey) MarshalBinary() ([]byte, error) {
	return appendGaloisKeyBody(putHeader(nil, kindGaloisKey), gk), nil
}

// UnmarshalBinary deserializes a Galois key.
func (gk *GaloisKey) UnmarshalBinary(data []byte) error {
	rest, err := checkHeader(data, kindGaloisKey)
	if err != nil {
		return err
	}
	k, rest, err := readGaloisKeyBody(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("ckks: %d trailing bytes", len(rest))
	}
	*gk = *k
	return nil
}

// MarshalBinary serializes the full evaluation-key bundle a client ships
// to the server: the relinearization key (optional) and all Galois keys,
// sorted by Galois element so the encoding is deterministic.
func (s *EvaluationKeySet) MarshalBinary() ([]byte, error) {
	buf := putHeader(nil, kindEvaluationKeySet)
	if s.Rlk != nil {
		buf = append(buf, 1)
		buf = appendSwitchingKeyBody(buf, &s.Rlk.SwitchingKey)
	} else {
		buf = append(buf, 0)
	}
	els := make([]uint64, 0, len(s.Galois))
	for gal := range s.Galois {
		els = append(els, gal)
	}
	slices.Sort(els)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(els)))
	for _, gal := range els {
		buf = appendGaloisKeyBody(buf, s.Galois[gal])
	}
	return buf, nil
}

// UnmarshalBinary deserializes an evaluation-key bundle. The Galois map
// is grown one parsed key at a time, so a forged count field cannot force
// a large allocation up front.
func (s *EvaluationKeySet) UnmarshalBinary(data []byte) error {
	rest, err := checkHeader(data, kindEvaluationKeySet)
	if err != nil {
		return err
	}
	if len(rest) < 5 {
		return fmt.Errorf("ckks: truncated evaluation-key set")
	}
	hasRlk := rest[0]
	rest = rest[1:]
	if hasRlk > 1 {
		return fmt.Errorf("ckks: bad relinearization-key flag %d", hasRlk)
	}
	var rlk *RelinearizationKey
	if hasRlk == 1 {
		swk, r, err := readSwitchingKeyBody(rest)
		if err != nil {
			return fmt.Errorf("ckks: relinearization key: %w", err)
		}
		rlk = &RelinearizationKey{*swk}
		rest = r
	}
	if len(rest) < 4 {
		return fmt.Errorf("ckks: truncated Galois-key count")
	}
	count := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	// Each Galois key needs at least its element, a digit count and one
	// polynomial header per component.
	if count < 0 || count > len(rest)/(8+4) {
		return fmt.Errorf("ckks: implausible Galois-key count %d for %d bytes", count, len(rest))
	}
	galois := make(map[uint64]*GaloisKey, count)
	for i := 0; i < count; i++ {
		gk, r, err := readGaloisKeyBody(rest)
		if err != nil {
			return fmt.Errorf("ckks: Galois key %d: %w", i, err)
		}
		if _, dup := galois[gk.GaloisElement]; dup {
			return fmt.Errorf("ckks: duplicate Galois element %d", gk.GaloisElement)
		}
		galois[gk.GaloisElement] = gk
		rest = r
	}
	if len(rest) != 0 {
		return fmt.Errorf("ckks: %d trailing bytes", len(rest))
	}
	s.Rlk, s.Galois = rlk, galois
	return nil
}

// MarshalBinary serializes a parameter literal. Prime chains travel as
// bit sizes, not prime values: generation is deterministic, so client and
// server derive identical moduli from the same literal.
func (lit ParametersLiteral) MarshalBinary() ([]byte, error) {
	if len(lit.LogQ) > 255 || len(lit.LogP) > 255 {
		return nil, fmt.Errorf("ckks: modulus chain too long to serialize (%d/%d)", len(lit.LogQ), len(lit.LogP))
	}
	buf := putHeader(nil, kindParams)
	// The third byte once carried a digit count nothing read; it stays in
	// the layout, always zero, so encoded literals keep their bytes.
	buf = append(buf, uint8(lit.LogN), uint8(lit.LogScale), 0)
	buf = append(buf, uint8(len(lit.LogQ)))
	for _, lq := range lit.LogQ {
		if lq < 1 || lq > 63 {
			return nil, fmt.Errorf("ckks: LogQ entry %d out of [1,63]", lq)
		}
		buf = append(buf, uint8(lq))
	}
	buf = append(buf, uint8(len(lit.LogP)))
	for _, lp := range lit.LogP {
		if lp < 1 || lp > 63 {
			return nil, fmt.Errorf("ckks: LogP entry %d out of [1,63]", lp)
		}
		buf = append(buf, uint8(lp))
	}
	return buf, nil
}

// UnmarshalBinary deserializes a parameter literal.
func (lit *ParametersLiteral) UnmarshalBinary(data []byte) error {
	rest, err := checkHeader(data, kindParams)
	if err != nil {
		return err
	}
	if len(rest) < 5 {
		return fmt.Errorf("ckks: truncated parameter literal")
	}
	if rest[2] != 0 {
		return fmt.Errorf("ckks: reserved parameter byte is %d, not 0", rest[2])
	}
	out := ParametersLiteral{LogN: int(rest[0]), LogScale: int(rest[1])}
	rest = rest[3:]
	readChain := func(name string) ([]int, error) {
		n := int(rest[0])
		rest = rest[1:]
		if len(rest) < n {
			return nil, fmt.Errorf("ckks: truncated %s chain (%d < %d)", name, len(rest), n)
		}
		chain := make([]int, n)
		for i := 0; i < n; i++ {
			if rest[i] < 1 || rest[i] > 63 {
				return nil, fmt.Errorf("ckks: %s entry %d out of [1,63]", name, rest[i])
			}
			chain[i] = int(rest[i])
		}
		rest = rest[n:]
		return chain, nil
	}
	if out.LogQ, err = readChain("LogQ"); err != nil {
		return err
	}
	if len(rest) < 1 {
		return fmt.Errorf("ckks: truncated parameter literal")
	}
	if out.LogP, err = readChain("LogP"); err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("ckks: %d trailing bytes", len(rest))
	}
	*lit = out
	return nil
}

// MarshalBinary serializes the literal this parameter set was compiled
// from; ParamsFromBytes reverses it (re-deriving the prime chains).
func (p *Parameters) MarshalBinary() ([]byte, error) {
	return p.lit.MarshalBinary()
}

// ParamsFromBytes decodes a serialized parameter literal and compiles it
// into a full parameter set. Prime generation is deterministic, so two
// parties decoding the same bytes hold identical rings.
func ParamsFromBytes(data []byte) (*Parameters, error) {
	var lit ParametersLiteral
	if err := lit.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return NewParameters(lit)
}

// Size returns the serialized size in bytes of the ciphertext (the
// paper's communication-cost unit).
func (ct *Ciphertext) Size() int {
	total := 6 + 8 + 4
	for _, p := range ct.Value {
		total += 8 + len(p.Coeffs)*p.N()*8
	}
	return total
}
