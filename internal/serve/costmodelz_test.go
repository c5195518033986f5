package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"antace/internal/core"
	"antace/internal/costmodel"
	"antace/internal/experiments"
	"antace/internal/fheclient"
	"antace/internal/obs"
	"antace/internal/ring"
	"antace/internal/serve/api"
)

// startResNetServer serves the reduced ResNet-20 — the program the
// paper's Figure 6 categories (Conv / Bootstrap / ReLU) are measured
// on — through the full serving stack.
func startResNetServer(t *testing.T) (*Server, *httptest.Server, int) {
	t.Helper()
	m, err := experiments.BuildModel(experiments.ModelSpec{Name: "ResNet-20", Depth: 20, Classes: 10}, experiments.ScaleReduced)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(m, experiments.ReducedConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The deep bootstrap chain needs a key bundle past the 256 MiB
	// default session budget, and under the race detector one inference
	// on one core outlasts the default 60 s request deadline.
	cfg := Config{Workers: 1, SessionBudget: 2 << 30}
	if raceDetector {
		cfg.DefaultDeadline = 10 * time.Minute
	}
	s, ts := serveProgram(t, Program{Name: "resnet20-reduced", CKKS: c.CKKS, VecLen: c.VectorLen()}, cfg)
	return s, ts, c.VectorLen()
}

// TestCostmodelDifferential is the end-to-end check on the calibrated
// cost model: after real encrypted traffic through the loopback server,
// the model's per-category predictions (Conv / Bootstrap / ReLU) must
// track what /v1/profilez measured. It holds two things:
//   - constants recalibrated live from that same profile predict every
//     category within 2x of its measured seconds;
//   - the shipped default constants price the categories in the measured
//     proportion: the three predicted/measured ratios agree within 2x of
//     each other. Their absolute level is the reference machine's speed
//     against the running machine's speed and load, which no constant
//     can follow (Calibrate and FromProfile exist for that), so it is
//     logged, not held.
//
// The comparison crosses /v1/costmodelz so the debug endpoint is
// exercised with its real payload.
func TestCostmodelDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full reduced-model inference")
	}
	_, ts, vecLen := startResNetServer(t)
	ctx := context.Background()

	c, err := fheclient.Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, ring.SeedFromInt(23)); err != nil {
		t.Fatal(err)
	}
	input := testInput(vecLen)
	const runs = 2
	for i := 0; i < runs; i++ {
		if _, err := c.Infer(ctx, input); err != nil {
			t.Fatal(err)
		}
	}

	// The profile the fit will read.
	resp, err := http.Get(ts.URL + api.PathProfilez)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.ProfileSnapshot
	if err := json.Unmarshal(readAll(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Runs != runs || len(snap.LastTrajectory) == 0 {
		t.Fatalf("profilez: runs=%d trajectory=%d", snap.Runs, len(snap.LastTrajectory))
	}

	resp, err = http.Get(ts.URL + api.PathCostmodelz)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d body %s", api.PathCostmodelz, resp.StatusCode, body)
	}
	var cm CostmodelzResponse
	if err := json.Unmarshal(body, &cm); err != nil {
		t.Fatalf("decoding costmodelz: %v\n%s", err, body)
	}
	if cm.Runs != runs {
		t.Errorf("costmodelz runs = %d, want %d", cm.Runs, runs)
	}
	if cm.MeasuredSec == nil {
		t.Fatal("costmodelz has no measured breakdown after traffic")
	}
	if cm.LiveErr != "" || cm.Live == nil || cm.PredictedLiveSec == nil {
		t.Fatalf("live recalibration failed: %q", cm.LiveErr)
	}
	if cm.Live.Source != "profile" {
		t.Errorf("live calibration source = %q, want profile", cm.Live.Source)
	}
	if len(cm.Fits) == 0 {
		t.Error("costmodelz has no per-op fit rows")
	}

	type catRatio struct {
		label string
		r     float64 // predicted / measured
	}
	ratios := func(name string, pred costmodel.Breakdown) []catRatio {
		t.Helper()
		var out []catRatio
		for _, cat := range []struct {
			label      string
			meas, pred float64
		}{
			{"Conv", cm.MeasuredSec.Conv, pred.Conv},
			{"Bootstrap", cm.MeasuredSec.Bootstrap, pred.Bootstrap},
			{"ReLU", cm.MeasuredSec.ReLU, pred.ReLU},
		} {
			if cat.meas <= 0 {
				t.Errorf("%s: no measured %s time — the reduced ResNet-20 must exercise every category", name, cat.label)
				continue
			}
			r := cat.pred / cat.meas
			t.Logf("%s: %s predicted %.3fs, measured %.3fs (ratio %.2f)", name, cat.label, cat.pred, cat.meas, r)
			out = append(out, catRatio{cat.label, r})
		}
		return out
	}

	// The shipped constants describe an uninstrumented build; the race
	// detector slows the arithmetic tenfold, so only the live fit can be
	// held to the measurement there.
	if !raceDetector {
		lo, hi := catRatio{r: math.Inf(1)}, catRatio{}
		for _, c := range ratios("default-calibration", cm.PredictedDefaultSec) {
			if c.r < lo.r {
				lo = c
			}
			if c.r > hi.r {
				hi = c
			}
		}
		spread := hi.r / lo.r
		t.Logf("default-calibration: category spread %.2f (%s %.2f / %s %.2f)", spread, hi.label, hi.r, lo.label, lo.r)
		if spread > 2 {
			t.Errorf("default-calibration: %s ratio %.2f vs %s ratio %.2f (spread %.2f, want within 2x): the shipped constants misprice one category relative to the others",
				hi.label, hi.r, lo.label, lo.r, spread)
		}
	}
	for _, c := range ratios("live-calibration", *cm.PredictedLiveSec) {
		if c.r < 0.5 || c.r > 2 {
			t.Errorf("live-calibration: %s ratio %.2f, want within 2x of measurement", c.label, c.r)
		}
	}

	// The live fit must not be worse than the default overall: it was
	// fitted to exactly this machine's measurements.
	defErr := relErr(cm.PredictedDefaultSec.Total(), cm.MeasuredSec.Total())
	liveErr := relErr(cm.PredictedLiveSec.Total(), cm.MeasuredSec.Total())
	if liveErr > defErr*1.5 {
		t.Errorf("live calibration (err %.2f) materially worse than default (err %.2f)", liveErr, defErr)
	}
}

func relErr(pred, meas float64) float64 {
	if meas == 0 {
		return 0
	}
	r := pred / meas
	if r < 1 {
		r = 1 / r
	}
	return r - 1
}

// TestCostmodelzIdle: before any traffic the endpoint still answers —
// with the default view and an explanatory live_error instead of
// fabricated constants.
func TestCostmodelzIdle(t *testing.T) {
	_, ts, _ := startServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + api.PathCostmodelz)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", api.PathCostmodelz, resp.StatusCode)
	}
	var cm CostmodelzResponse
	if err := json.Unmarshal(body, &cm); err != nil {
		t.Fatal(err)
	}
	if cm.Runs != 0 || cm.Live != nil || cm.LiveErr == "" {
		t.Fatalf("idle costmodelz: runs=%d live=%v live_error=%q, want 0/nil/non-empty", cm.Runs, cm.Live, cm.LiveErr)
	}
	if cm.PredictedDefaultSec.Total() <= 0 {
		t.Error("idle costmodelz has no default prediction")
	}
	if cm.Geometry.LogN <= 0 {
		t.Errorf("geometry %+v not populated", cm.Geometry)
	}
}
