package ckks

import (
	"reflect"
	"testing"

	"antace/internal/ring"
)

func switchingKeysEqual(a, b *SwitchingKey) bool {
	if len(a.BQ) != len(b.BQ) {
		return false
	}
	for d := range a.BQ {
		if !a.BQ[d].Equal(b.BQ[d]) || !a.BP[d].Equal(b.BP[d]) ||
			!a.AQ[d].Equal(b.AQ[d]) || !a.AP[d].Equal(b.AP[d]) {
			return false
		}
	}
	return true
}

func TestSwitchingKeyRoundTrip(t *testing.T) {
	tc := newTestContext(t, nil)
	swk := tc.kg.GenSwitchingKey(tc.sk.Q, tc.sk)
	data, err := swk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back SwitchingKey
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !switchingKeysEqual(swk, &back) {
		t.Fatal("switching key round trip lost data")
	}
	if err := back.UnmarshalBinary(data[:len(data)-3]); err == nil {
		t.Fatal("expected a truncation error")
	}
}

func TestRelinearizationKeyRoundTrip(t *testing.T) {
	tc := newTestContext(t, nil)
	rlk := tc.kg.GenRelinearizationKey(tc.sk)
	data, err := rlk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The relin key must not be confusable with a bare switching key.
	if err := new(SwitchingKey).UnmarshalBinary(data); err == nil {
		t.Fatal("relin key decoded as a switching key")
	}
	var back RelinearizationKey
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !switchingKeysEqual(&rlk.SwitchingKey, &back.SwitchingKey) {
		t.Fatal("relinearization key round trip lost data")
	}
}

func TestGaloisKeyRoundTrip(t *testing.T) {
	tc := newTestContext(t, []int{1})
	gal := tc.params.RingQ().GaloisElementForRotation(1)
	gk := tc.kg.GenGaloisKey(gal, tc.sk)
	data, err := gk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back GaloisKey
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.GaloisElement != gal || !switchingKeysEqual(&gk.SwitchingKey, &back.SwitchingKey) {
		t.Fatal("Galois key round trip lost data")
	}
}

// TestEvaluationKeySetRoundTrip serializes a full client key bundle and
// verifies the deserialized keys actually work: a rotate + relinearized
// multiply evaluated under the round-tripped set must decrypt correctly.
func TestEvaluationKeySetRoundTrip(t *testing.T) {
	tc := newTestContext(t, []int{1, 2})
	keys := &EvaluationKeySet{
		Rlk:    tc.kg.GenRelinearizationKey(tc.sk),
		Galois: tc.kg.GenGaloisKeys([]int{1, 2}, true, tc.sk),
	}
	data, err := keys.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	data2, err := keys.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(data, data2) {
		t.Fatal("evaluation-key encoding is not deterministic")
	}
	var back EvaluationKeySet
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if len(back.Galois) != len(keys.Galois) {
		t.Fatalf("galois count %d, want %d", len(back.Galois), len(keys.Galois))
	}
	for gal, gk := range keys.Galois {
		bk, err := back.GaloisKeyFor(gal)
		if err != nil {
			t.Fatal(err)
		}
		if !switchingKeysEqual(&gk.SwitchingKey, &bk.SwitchingKey) {
			t.Fatalf("galois key %d round trip lost data", gal)
		}
	}

	ev := NewEvaluator(tc.params, &back)
	values := randomComplexVector(tc.params.Slots(), 1, 91)
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encPk.Encrypt(pt)
	rot, err := ev.Rotate(ct, 1)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := ev.MulRelin(rot, ct)
	if err != nil {
		t.Fatal(err)
	}
	// Differential check against an evaluator holding the original keys:
	// both key sets must produce bit-identical ciphertexts.
	ev0 := NewEvaluator(tc.params, keys)
	rot0, err := ev0.Rotate(ct, 1)
	if err != nil {
		t.Fatal(err)
	}
	prod0, err := ev0.MulRelin(rot0, ct)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prod.Value {
		if !prod.Value[i].Equal(prod0.Value[i]) {
			t.Fatalf("component %d differs under round-tripped keys", i)
		}
	}
}

func TestEvaluationKeySetWithoutRlk(t *testing.T) {
	tc := newTestContext(t, []int{4})
	keys := &EvaluationKeySet{Galois: tc.kg.GenGaloisKeys([]int{4}, false, tc.sk)}
	data, err := keys.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back EvaluationKeySet
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Rlk != nil {
		t.Fatal("phantom relinearization key appeared")
	}
	if len(back.Galois) != 1 {
		t.Fatalf("galois count %d, want 1", len(back.Galois))
	}
}

func TestParametersLiteralRoundTrip(t *testing.T) {
	lits := []ParametersLiteral{
		{LogN: 8, LogQ: []int{50, 40, 40, 40}, LogP: []int{50, 50}, LogScale: 40},
		{LogN: 13, LogQ: []int{60, 56, 56}, LogP: []int{60}, LogScale: 56},
		{LogN: 9, LogQ: []int{60, 40, 40, 40, 40, 40, 40, 60, 60}, LogP: []int{61, 61, 61, 61, 61, 61}, LogScale: 40},
	}
	for _, lit := range lits {
		data, err := lit.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back ParametersLiteral
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lit, back) {
			t.Fatalf("literal round trip: got %+v, want %+v", back, lit)
		}
		// Decoding to compiled parameters must reproduce the same primes.
		p1, err := NewParameters(lit)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := ParamsFromBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p1.Q(), p2.Q()) || !reflect.DeepEqual(p1.P(), p2.P()) {
			t.Fatal("prime chains diverged after round trip")
		}
	}
}

func TestParametersLiteralRejectsBad(t *testing.T) {
	if _, err := (ParametersLiteral{LogN: 8, LogQ: []int{70}, LogP: []int{50}, LogScale: 40}).MarshalBinary(); err == nil {
		t.Fatal("expected an error for a 70-bit prime request")
	}
	lit := ParametersLiteral{LogN: 8, LogQ: []int{50}, LogP: []int{50}, LogScale: 40}
	data, _ := lit.MarshalBinary()
	var back ParametersLiteral
	if err := back.UnmarshalBinary(data[:len(data)-1]); err == nil {
		t.Fatal("expected a truncation error")
	}
	if err := back.UnmarshalBinary(append(data, 0)); err == nil {
		t.Fatal("expected a trailing-bytes error")
	}
}

// TestSwitchingKeyOverUniqueSeeds guards the encoding against aliasing:
// two keys generated from different randomness must serialize differently.
func TestSwitchingKeyOverUniqueSeeds(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN: 8, LogQ: []int{50, 40}, LogP: []int{50}, LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	kgA := NewKeyGenerator(params, ring.SeedFromInt(1))
	kgB := NewKeyGenerator(params, ring.SeedFromInt(2))
	skA, skB := kgA.GenSecretKey(), kgB.GenSecretKey()
	a, _ := kgA.GenRelinearizationKey(skA).MarshalBinary()
	b, _ := kgB.GenRelinearizationKey(skB).MarshalBinary()
	if reflect.DeepEqual(a, b) {
		t.Fatal("distinct keys serialized identically")
	}
}
