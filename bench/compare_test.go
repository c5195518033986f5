package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeLedger(t *testing.T, dir, name string, runs ...runRecord) string {
	t.Helper()
	raw, err := json.Marshal(ledger{Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func e2eRun(workload string, latency, rate float64) runRecord {
	return runRecord{Workload: workload, Result: result{Correct: true, Attempted: 5, Metrics: map[string]metric{
		"op_ms_p50": {latency, "ms"}, "ops_per_s": {rate, "1/s"},
	}}}
}

func TestCompare(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricSpec{
			{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
		PerLayer: []metricSpec{
			{Name: "ckks.rotate_count", Unit: "count", Better: "lower"},
			{Name: "ckks.rotate_s", Unit: "s", Better: "lower"},
		},
	}
	if w := worsening("lower", 100, 112); math.Abs(w-0.12) > 1e-12 {
		t.Errorf("lower-is-better worsening %v, want 0.12", w)
	}
	if w := worsening("higher", 100, 88); math.Abs(w-0.12) > 1e-12 {
		t.Errorf("higher-is-better worsening %v, want 0.12", w)
	}

	dir := t.TempDir()
	base := writeLedger(t, dir, "a.json", e2eRun("infer_gemv", 100, 10), e2eRun("serve_mixed", 10, 200))
	for _, c := range []struct {
		name string
		b    []runRecord
		ok   bool
		want string
	}{
		{"inside the bound", []runRecord{e2eRun("infer_gemv", 109, 9.2), e2eRun("serve_mixed", 9, 230)}, true, ""},
		{"slower", []runRecord{e2eRun("infer_gemv", 111, 10), e2eRun("serve_mixed", 10, 200)}, false, "REGRESSION"},
		{"lower rate", []runRecord{e2eRun("infer_gemv", 100, 10), e2eRun("serve_mixed", 10, 170)}, false, "REGRESSION"},
	} {
		var out strings.Builder
		ok, err := compareLedgers(&out, spec, base, writeLedger(t, dir, "b.json", c.b...))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: ok = %v, output:\n%s", c.name, ok, out.String())
		}
		if rows := strings.Count(out.String(), "\n"); rows != 1+2*2 {
			t.Errorf("%s: %d lines, want a header and one row per workload × metric", c.name, rows)
		}
	}

	traced := func(count, secs float64) runRecord {
		return runRecord{Workload: "infer_gemv", Trace: true, Result: result{Correct: true, Attempted: 2, Metrics: map[string]metric{
			"ckks.rotate_count": {count, "count"}, "ckks.rotate_s": {secs, "s"},
		}}}
	}
	ta := writeLedger(t, dir, "ta.json", traced(1023, 0.6))
	var out strings.Builder
	if ok, _ := compareLedgers(&out, spec, ta, writeLedger(t, dir, "tb.json", traced(1023, 0.9))); !ok {
		t.Errorf("equal counts rejected:\n%s", out.String())
	}
	if ok, _ := compareLedgers(&out, spec, ta, writeLedger(t, dir, "tc.json", traced(1022, 0.6))); ok {
		t.Error("differing exact count accepted")
	}

	failed := e2eRun("infer_gemv", 100, 10)
	failed.Result.Correct, failed.Result.Failed = false, 1
	if ok, _ := compareLedgers(&out, spec, base, writeLedger(t, dir, "f.json", failed)); ok {
		t.Error("a run with failed operations accepted")
	}
}
