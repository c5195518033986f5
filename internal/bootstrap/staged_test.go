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
	"antace/internal/obs"
	"antace/internal/ring"
)

// refreshError compiles parameters for a program of two-level segments
// over the given slot count with the given DFT stage counts (zero: the
// compiler picks), bootstraps one random exhausted ciphertext of real
// slots for real and returns the worst slot error (real part, or the
// imaginary part the output should not have) with the stage counts
// used. observe, when set, watches the bootstrap's fused kernels; calls
// counts the fused-kernel calls of the expansion the compiler prices the
// same bootstrap by, its schedule op by op. EvalMod
// covers K = 24 with four double angles, as the benchmark's ResNet does:
// under the default K = 16 the integer part of one coefficient in a few
// hundred thousand falls outside the interpolated range, which a ring of
// 8192 coefficients meets every few dozen bootstraps.
func refreshError(t *testing.T, slots, c2sStages, s2cStages int, observe func(string, time.Duration)) (worst float64, used bootstrap.Parameters, calls map[string]int) {
	t.Helper()
	bp := bootstrap.Parameters{K: 24, DoubleAngle: 4, C2SStages: c2sStages, S2CStages: s2cStages}
	lit, target, boot, err := ckksir.SelectParameters([]int{2, 2}, slots, 0, ckksir.Options{LogScale: 40, IgnoreSecurity: true, Boot: bp})
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
	if err := eval.DropLevel(ct, ct.Level()-bt.InputLevel()); err != nil {
		t.Fatal(err)
	}
	eval.KernelObserver = observe
	out, err := bt.Bootstrap(eval, ct, target)
	eval.KernelObserver = nil
	if err != nil {
		t.Fatal(err)
	}
	// One depth everywhere: the chain the compiler laid out has exactly the
	// levels the plan-derived CircuitDepth names, SlotsToCoeffs' below the
	// two compute levels and the rest above them, the bootstrapper built
	// from the same configuration agrees, and the circuit consumed them all
	// (Bootstrap refuses to end anywhere but on the target).
	d := bootstrap.CircuitDepth(*boot)
	if d != bt.Depth() || params.MaxLevel() != bootstrap.RaiseLevel(*boot, target) || target-boot.S2CStages != 2 || out.Level() != target {
		t.Fatalf("CircuitDepth %d, Bootstrapper.Depth %d, chain has %d levels above the target, output at level %d (target %d, %d S2C stages)",
			d, bt.Depth(), params.MaxLevel()-target, out.Level(), target, boot.S2CStages)
	}
	got := enc.Decode(ckks.NewDecryptor(params, sk).Decrypt(out), params.Slots())
	for i := range got {
		worst = math.Max(worst, math.Max(math.Abs(real(got[i]-values[i])), math.Abs(imag(got[i]))))
	}
	schedule := bootstrap.Schedule(*boot, params.LogN(), target)
	checkSchedule(t, schedule, *boot, target, bt.StageDiagonals())
	// One bootstrap encodes every stage's diagonals once, and a staged
	// transform has few: nothing slots × slots exists anywhere.
	diags := 0
	for _, op := range schedule {
		diags += op.Split.Masks
	}
	if st := bt.TableStats(); st.Entries != diags || st.Misses != uint64(diags) || st.Hits != 0 {
		t.Errorf("%d slots in %d/%d stages: diagonal tables at %+v after one bootstrap, want %d entries", slots, boot.C2SStages, boot.S2CStages, st, diags)
	}
	calls = map[string]int{}
	for _, op := range schedule {
		op.Expand(lit.Geometry(), func(p kswork.Prim) {
			if _, kernel := obs.FusedConstituents[p.Op]; kernel {
				calls[p.Op] += p.Count
			}
		})
	}
	return worst, *boot, calls
}

// checkSchedule holds the op list of a bootstrap to the target level to
// the circuit: it starts at level S2CStages; the level falls only at an
// op that consumes one (a stage matrix or rescale one, the polynomial its
// plan's depth); the one mod raise finds level 0 after the SlotsToCoeffs
// stages and lifts it to target + CircuitDepth − S2CStages; the list
// ends on the target; the stage matrices come in order, SlotsToCoeffs'
// first, and have the diagonals of the bootstrapper's.
func checkSchedule(t *testing.T, ops []bootstrap.Op, bp bootstrap.Parameters, target int, stageDiags []int) {
	t.Helper()
	level, stage, raises := bp.S2CStages, 0, 0
	for i, op := range ops {
		if op.Level != level {
			t.Errorf("op %d (%s) enters at level %d, the op before left level %d", i, op.Name, op.Level, level)
		}
		switch op.Name {
		case kswork.OpLinear:
			if op.Stage != stage || stage >= len(stageDiags) || op.Split.Masks != stageDiags[stage] {
				t.Errorf("op %d: stage %d of %d diagonals; the bootstrapper's stage %d has %v", i, op.Stage, op.Split.Masks, stage, stageDiags)
			}
			stage++
			level--
		case kswork.OpRescale:
			level--
		case kswork.OpPoly:
			level -= op.Plan.Depth()
		case kswork.OpModRaise:
			if raises++; op.Level != 0 || stage != bp.S2CStages || op.To-target != bootstrap.CircuitDepth(bp)-bp.S2CStages {
				t.Errorf("op %d: raise from level %d to %d after %d stages; want from 0 after %d, %d above the target %d",
					i, op.Level, op.To, stage, bp.S2CStages, bootstrap.CircuitDepth(bp)-bp.S2CStages, target)
			}
			level = op.To
		}
	}
	if level != target || stage != len(stageDiags) || raises != 1 {
		t.Errorf("schedule ends at level %d after %d stage matrices and %d raises; target %d, %d stages", level, stage, raises, target, len(stageDiags))
	}
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
// the bootstrap the runtime executes: the fused-kernel events of one real
// bootstrap are exactly the kernel calls of the schedule's expansion.
func TestScheduleMatchesRuntime(t *testing.T) {
	for _, c := range []struct{ slots, c2s, s2c int }{{128, 2, 1}, {2048, 2, 2}} {
		t.Run(fmt.Sprintf("%d-slots-%d-%d", c.slots, c.c2s, c.s2c), func(t *testing.T) {
			got := map[string]int{}
			_, _, want := refreshError(t, c.slots, c.c2s, c.s2c, func(op string, _ time.Duration) { got[op]++ })
			if !maps.Equal(got, want) {
				t.Errorf("kernel events %v, schedule expands to %v", got, want)
			}
			t.Logf("kernel events %v", got)
		})
	}
}
