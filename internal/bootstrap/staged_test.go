package bootstrap_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"antace/internal/bootstrap"
	"antace/internal/ckks"
	"antace/internal/ckksir"
	"antace/internal/ring"
)

// refreshError compiles parameters for a program of two-level segments
// over the given slot count with the given DFT stage counts (zero: the
// compiler picks), bootstraps one random exhausted ciphertext for real
// and returns the worst slot error with the stage counts used. EvalMod
// covers K = 24 with four double angles, as the benchmark's ResNet does:
// under the default K = 16 the integer part of one coefficient in a few
// hundred thousand falls outside the interpolated range, which a ring of
// 8192 coefficients meets every few dozen bootstraps.
func refreshError(t *testing.T, slots, c2sStages, s2cStages int) (worst float64, used bootstrap.Parameters) {
	t.Helper()
	bp := bootstrap.Parameters{K: 24, DoubleAngle: 4, C2SStages: c2sStages, S2CStages: s2cStages}
	lit, target, boot, err := ckksir.SelectParameters([]int{2, 2}, slots, ckksir.Options{LogScale: 40, IgnoreSecurity: true, Boot: bp})
	if err != nil {
		t.Fatal(err)
	}
	params, err := ckks.NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := bootstrap.NewBootstrapper(params, *boot, params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, ring.SeedFromInt(123))
	sk := kg.GenSecretKey()
	eval := ckks.NewEvaluator(params, &ckks.EvaluationKeySet{
		Rlk:    kg.GenRelinearizationKey(sk),
		Galois: kg.GenGaloisKeys(bt.RequiredRotations(), true, sk),
	})
	enc := ckks.NewEncoder(params)

	rng := rand.New(rand.NewPCG(5, 11))
	values := make([]complex128, params.Slots())
	for i := range values {
		values[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	pt, err := enc.Encode(values, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := ckks.NewEncryptorFromSecretKey(params, sk).Encrypt(pt)
	if err := eval.DropLevel(ct, ct.Level()); err != nil {
		t.Fatal(err)
	}
	out, err := bt.Bootstrap(eval, ct, target)
	if err != nil {
		t.Fatal(err)
	}
	// One depth everywhere: the chain the compiler laid out has exactly the
	// levels the plan-derived CircuitDepth names, the bootstrapper built
	// from the same configuration agrees, and the circuit consumed them all
	// (Bootstrap refuses to end anywhere but on the target).
	if d := bootstrap.CircuitDepth(*boot); d != bt.Depth() || params.MaxLevel()-target != d || out.Level() != target {
		t.Fatalf("CircuitDepth %d, Bootstrapper.Depth %d, chain has %d levels above the target, output at level %d (target %d)",
			d, bt.Depth(), params.MaxLevel()-target, out.Level(), target)
	}
	got := enc.Decode(ckks.NewDecryptor(params, sk).Decrypt(out), params.Slots())
	for i := range got {
		worst = math.Max(worst, math.Max(math.Abs(real(got[i]-values[i])), math.Abs(imag(got[i]-values[i]))))
	}
	// One bootstrap encodes every stage's diagonals once, and a staged
	// transform has few: nothing slots × slots exists anywhere.
	c2s, s2c := bootstrap.StageDiagonals(*boot, params.LogN()-1)
	diags := 0
	for _, d := range append(c2s, s2c...) {
		diags += d
	}
	if st := bt.TableStats(); st.Entries != diags || st.Misses != uint64(diags) || st.Hits != 0 {
		t.Errorf("%d slots in %d/%d stages: diagonal tables at %+v after one bootstrap, want %d entries", slots, boot.C2SStages, boot.S2CStages, st, diags)
	}
	return worst, *boot
}

// refreshBudget is TestBootstrapRefreshesCiphertext's threshold: staging
// the transforms, however finely, must not cost precision.
const refreshBudget = 5e-4

// TestStagedBootstrapPrecision refreshes a ciphertext under every split
// of the two DFTs that 128 slots allow, one stage (the dense transform)
// to four.
func TestStagedBootstrapPrecision(t *testing.T) {
	for _, st := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 2}, {4, 4}} {
		t.Run(fmt.Sprintf("%d-%d", st[0], st[1]), func(t *testing.T) {
			worst, _ := refreshError(t, 128, st[0], st[1])
			t.Logf("bootstrap max error: %.3e (~%.1f bits)", worst, -math.Log2(worst))
			if worst > refreshBudget {
				t.Fatalf("bootstrap error %g too large", worst)
			}
		})
	}
}

// TestBootstrapAtLogN12 bootstraps for real in a ring whose dense
// transforms would be two 2048 × 2048 matrices, with the stage counts the
// compiler chooses there.
func TestBootstrapAtLogN12(t *testing.T) { refreshAtCompilerStages(t, 1<<11) }

func refreshAtCompilerStages(t *testing.T, slots int) {
	worst, used := refreshError(t, slots, 0, 0)
	t.Logf("%d slots, stages %d/%d: bootstrap max error %.3e (~%.1f bits)", slots, used.C2SStages, used.S2CStages, worst, -math.Log2(worst))
	if used.C2SStages < 2 || used.S2CStages < 2 {
		t.Errorf("compiler chose %d/%d stages for %d slots", used.C2SStages, used.S2CStages, slots)
	}
	if worst > refreshBudget {
		t.Fatalf("bootstrap error %g too large", worst)
	}
}
