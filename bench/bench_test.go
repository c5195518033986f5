package main

import (
	"math"
	"regexp"
	"testing"
	"time"

	ace "antace"
	"antace/internal/onnx"
	"antace/internal/par"
)

// TestDeclaration holds BENCHMARK.json to the limits the pipeline
// refuses a benchmark for, and to what this program runs and reports.
func TestDeclaration(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		check(w.Name)
		if w.Name != workloads[i].name || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars) does not match %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("run_seconds %d or %d per-layer metrics out of range", spec.RunSeconds, len(spec.PerLayer))
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	e2e := endToEnd(&outcome{setupS: 1, cpuPerOp: []float64{1}})
	if _, err := declared(spec.EndToEnd, e2e, false); err != nil {
		t.Error(err)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if m := spec.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s", m)
	}
}

func TestDeclaredRejectsDrift(t *testing.T) {
	specs := []metricSpec{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	if _, err := declared(specs, map[string]float64{"a": 1}, false); err == nil {
		t.Error("missing end-to-end value accepted")
	}
	if _, err := declared(specs, map[string]float64{"a": 1, "c": 2}, true); err == nil {
		t.Error("undeclared metric accepted")
	}
	got, err := declared(specs, map[string]float64{"a": 1}, true)
	if err != nil || got["b"] != (metric{0, "ms"}) || got["a"] != (metric{1, "s"}) {
		t.Errorf("declared = %v, %v", got, err)
	}
}

func TestWatchdog(t *testing.T) {
	if err := withDeadline(time.Second, func() error { return nil }); err != nil {
		t.Error(err)
	}
	hang := make(chan struct{})
	defer close(hang)
	if err := withDeadline(10*time.Millisecond, func() error { <-hang; return nil }); err != errWatchdog {
		t.Errorf("hung operation returned %v", err)
	}
}

// TestInferTraced drives the in-process inference workload end to end
// on the smallest model the daemons serve and checks that the traced
// numbers nest: the three parts make up the operation, the per-op times
// make up the run, and every name is one BENCHMARK.json declares.
func TestInferTraced(t *testing.T) {
	par.SetWorkers(pinnedWorkers)
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &runCtx{seed: 3, seconds: 0.05, rec: newRecorder()}
	o, err := runInfer(ctx, inferSpec{
		build:   func() (*onnx.Model, error) { return onnx.BuildLinear(64, 10, 42) },
		profile: ace.TestProfile,
		budget:  1e-6,
		opLimit: time.Minute,
		setups:  2,
		minOps:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.succeeded != o.attempted || o.setups != 2 || o.setupS <= 0 || len(o.cpuPerOp) != len(o.ops) || len(o.ops) == 0 || len(o.tracedOps) == 0 {
		t.Fatalf("outcome %+v", o)
	}
	if _, err := declared(spec.PerLayer, o.layers, true); err != nil {
		t.Error(err)
	}
	l := o.layers
	var ops float64
	for _, op := range profiledOps {
		ops += l[op+"_s"]
	}
	ops += l["ckks.other_s"]
	if run := l["vm.run_s"]; math.Abs(ops+l["vm.loop_overhead_s"]-run) > 0.1*run {
		t.Errorf("per-op times %.6f + loop %.6f do not make up the run %.6f", ops, l["vm.loop_overhead_s"], run)
	}
	if l["ckks.rotate_count"] != l["ckksir.rotations"] || l["ckks.rotate_count"] == 0 {
		t.Errorf("executed %v rotations, compiled %v", l["ckks.rotate_count"], l["ckksir.rotations"])
	}

	// Spans: each traced inference is covered by its three parts, and the
	// run's self time is what the per-op children leave.
	self := selfTimes(ctx.rec.spans)
	var infers int
	for _, s := range ctx.rec.spans {
		if s.Name == "infer" {
			infers++
			if self[s.ID] < 0 || self[s.ID] > (s.EndUs-s.StartUs)/50+2 {
				t.Errorf("inference span %d leaves %d of %d µs uncovered", s.ID, self[s.ID], s.EndUs-s.StartUs)
			}
		}
	}
	if infers != len(o.tracedOps) {
		t.Errorf("%d inference spans for %d traced operations", infers, len(o.tracedOps))
	}
}
