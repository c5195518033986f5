package bootstrap_test

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"antace/internal/bootstrap"
	"antace/internal/ckks"
	"antace/internal/ckksir"
	"antace/internal/kswork"
	"antace/internal/poly"
	"antace/internal/ring"
)

// refreshError compiles parameters for a program of two-level segments
// over the given slot count with the given DFT stage counts (zero: the
// compiler picks), bootstraps one random exhausted ciphertext of real
// slots for real and returns the worst slot error (real part, or the
// imaginary part the output should not have) with the stage counts
// used. observe, when set, watches the bootstrap's fused kernels; it
// returns the schedule the compiler prices the same bootstrap by. EvalMod
// covers K = 24 with four double angles, as the benchmark's ResNet does:
// under the default K = 16 the integer part of one coefficient in a few
// hundred thousand falls outside the interpolated range, which a ring of
// 8192 coefficients meets every few dozen bootstraps.
func refreshError(t *testing.T, slots, c2sStages, s2cStages int, observe func(string, time.Duration)) (worst float64, used bootstrap.Parameters, schedule []bootstrap.Step) {
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
		values[i] = complex(rng.Float64()*2-1, 0)
	}
	pt, err := enc.Encode(values, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := ckks.NewEncryptorFromSecretKey(params, sk).Encrypt(pt)
	if err := eval.DropLevel(ct, ct.Level()); err != nil {
		t.Fatal(err)
	}
	eval.KernelObserver = observe
	out, err := bt.Bootstrap(eval, ct, target)
	eval.KernelObserver = nil
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
		worst = math.Max(worst, math.Max(math.Abs(real(got[i]-values[i])), math.Abs(imag(got[i]))))
	}
	// One bootstrap encodes every stage's diagonals once, and a staged
	// transform has few: nothing slots × slots exists anywhere.
	schedule = bootstrap.Schedule(*boot, params.LogN(), target)
	if top := schedule[1].Level; schedule[0].Level != 0 || top-target != bootstrap.CircuitDepth(*boot) {
		t.Errorf("schedule starts at level %d and raises to level %d, %d above the target; the circuit is %d deep", schedule[0].Level, top, top-target, bootstrap.CircuitDepth(*boot))
	}
	diags := 0
	for _, s := range schedule {
		diags += s.Diags
	}
	if st := bt.TableStats(); st.Entries != diags || st.Misses != uint64(diags) || st.Hits != 0 {
		t.Errorf("%d slots in %d/%d stages: diagonal tables at %+v after one bootstrap, want %d entries", slots, boot.C2SStages, boot.S2CStages, st, diags)
	}
	return worst, *boot, schedule
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
			worst, _, _ := refreshError(t, 128, st[0], st[1], nil)
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
	worst, used, _ := refreshError(t, slots, 0, 0, nil)
	t.Logf("%d slots, stages %d/%d: bootstrap max error %.3e (~%.1f bits)", slots, used.C2SStages, used.S2CStages, worst, -math.Log2(worst))
	if used.C2SStages < 2 || used.S2CStages < 2 {
		t.Errorf("compiler chose %d/%d stages for %d slots", used.C2SStages, used.S2CStages, slots)
	}
	if worst > refreshBudget {
		t.Fatalf("bootstrap error %g too large", worst)
	}
}

// TestScheduleMatchesRuntime holds the schedule every model folds over to
// the bootstrap the runtime executes: counting the fused kernels of one
// real bootstrap, each key switch outside the transforms (the three
// conjugations, EvalMod's relinearisations and double angles) is one
// decomposition, one key product and one division, and a
// stage matrix of n1 baby and n2 giant steps adds [n1 > 1] + n2 − 1
// decompositions, n1 − 1 + n2 − 1 key products and n2 divisions.
func TestScheduleMatchesRuntime(t *testing.T) {
	for _, c := range []struct{ slots, c2s, s2c int }{{128, 2, 1}, {2048, 2, 2}} {
		t.Run(fmt.Sprintf("%d-slots-%d-%d", c.slots, c.c2s, c.s2c), func(t *testing.T) {
			got := map[string]int{}
			_, _, schedule := refreshError(t, c.slots, c.c2s, c.s2c, func(op string, _ time.Duration) { got[op]++ })
			want := map[string]int{}
			for _, s := range schedule {
				switch s.Kind {
				case bootstrap.StepC2S, bootstrap.StepS2C:
					n1, n2 := kswork.BabySteps(s.Diags), kswork.GiantSteps(s.Diags)
					if n1 > 1 {
						want["poly.decomp_modup"]++
					}
					want["poly.decomp_modup"] += n2 - 1
					want["poly.hw_modmuladd"] += n1 - 1 + n2 - 1
					want["poly.mod_down"] += n2
				default:
					switches := 1
					if s.Kind == bootstrap.StepEvalMod {
						switches = 0
						s.Plan.Walk(func(st poly.Step, _ int) {
							if st == poly.StepRelin {
								switches++
							}
						})
					}
					for _, k := range []string{"poly.decomp_modup", "poly.hw_modmuladd", "poly.mod_down"} {
						want[k] += switches
					}
				}
			}
			if !maps.Equal(got, want) {
				t.Errorf("kernel events %v, schedule counts %v", got, want)
			}
			t.Logf("kernel events %v", got)
		})
	}
}
