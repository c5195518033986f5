package vm

import (
	"fmt"
	"sync"

	"antace/internal/batch"
	"antace/internal/ckks"
)

// Client is the paper's ANT-ACE-generated encryptor/decryptor pair and
// the one holder of a secret key, in process (New) and behind the
// serving layer (fheclient): it generates the evaluation keys a key set
// names, and packs, encrypts, decrypts and unpacks in the program's
// layout. It is safe for concurrent use.
type Client struct {
	enc    *ckks.Encoder
	layout Layout
	dec    *ckks.Decryptor

	mu        sync.Mutex // guards the samplers of kg and encryptor
	kg        *ckks.KeyGenerator
	sk        *ckks.SecretKey
	encryptor *ckks.Encryptor
}

// Layout is how a program's input and output are packed: VecLen logical
// slots, encrypted at Level and Scale. Stride > 1 targets a
// lane-transformed module (cross-request slot batching): logical slot i
// sits at physical slot i·Stride+lane, inputs in lane 0. Zero or one is
// the plain solo layout.
type Layout struct {
	VecLen, Level int
	Scale         float64
	Stride        int
}

// NewClient draws a secret and a public key over params; a nil seed
// draws fresh randomness. enc is an encoder for params, shared or not.
func NewClient(params *ckks.Parameters, enc *ckks.Encoder, layout Layout, seed *[32]byte) (*Client, error) {
	if layout.Stride > 1 && layout.Stride != batch.Stride(params.Slots(), layout.VecLen) {
		return nil, fmt.Errorf("vm: stride %d does not lay %d values over %d slots", layout.Stride, layout.VecLen, params.Slots())
	}
	kg := ckks.NewKeyGenerator(params, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	return &Client{
		enc:       enc,
		layout:    layout,
		dec:       ckks.NewDecryptor(params, sk),
		kg:        kg,
		sk:        sk,
		encryptor: ckks.NewEncryptor(params, pk),
	}, nil
}

// Keys generates the evaluation keys for a key set: relinearisation,
// then the Galois keys in the set's order. A seeded client yields the
// same bytes for the same key set.
func (c *Client) Keys(ks KeySet) *ckks.EvaluationKeySet {
	c.mu.Lock()
	defer c.mu.Unlock()
	rlk := c.kg.GenRelinearizationKey(c.sk) // first: the order fixes a seeded client's bytes
	return &ckks.EvaluationKeySet{Rlk: rlk, Galois: c.kg.GenGaloisKeys(ks.Rotations, ks.Conjugation, c.sk)}
}

// Encrypt packs and encrypts a slot vector at the compiled input level
// and scale, strided into lane 0 under a lane layout.
func (c *Client) Encrypt(values []float64) (*ckks.Ciphertext, error) {
	if len(values) != c.layout.VecLen {
		return nil, fmt.Errorf("vm: input length %d, compiled for %d", len(values), c.layout.VecLen)
	}
	if c.layout.Stride > 1 {
		exp, err := batch.ExpandLane(values, 0, c.layout.Stride)
		if err != nil {
			return nil, err
		}
		values = exp
	}
	pt, err := c.enc.EncodeReal(values, c.layout.Level, c.layout.Scale)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.encryptor.Encrypt(pt), nil
}

// Decrypt decrypts and decodes back to the slot vector (lane 0 under a
// lane layout).
func (c *Client) Decrypt(ct *ckks.Ciphertext) []float64 {
	out, _ := c.DecryptLane(ct, 0) // lane 0 always exists
	return out
}

// DecryptLane decrypts a shared batched result and returns the logical
// vector riding the given lane. Under the solo layout only lane 0
// exists. The lane usually comes from a reply header, so one out of
// range is an error, not a panic.
func (c *Client) DecryptLane(ct *ckks.Ciphertext, lane int) ([]float64, error) {
	stride := max(c.layout.Stride, 1)
	if lane < 0 || lane >= stride {
		return nil, fmt.Errorf("vm: lane %d out of range for stride %d", lane, stride)
	}
	wide := c.enc.DecodeReal(c.dec.Decrypt(ct), c.layout.VecLen*stride)
	if stride == 1 {
		return wide, nil
	}
	return batch.ExtractLane(wide, lane, stride)
}
