package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readLedger(path string) (*ledger, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(raw, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction: positive means b regressed.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareLedgers prints one row per workload × end-to-end metric and
// reports whether B stays within every bound. For traced runs it also
// requires the per-layer metrics whose unit is "count" — the ones that
// must repeat exactly — to be equal.
func compareLedgers(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	a, err := readLedger(pathA)
	if err != nil {
		return false, err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-28s %14s %14s %8s %7s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != rb.Workload || ra.Trace != rb.Trace {
				continue
			}
			if !ra.Result.Correct || !rb.Result.Correct {
				fmt.Fprintf(w, "%-14s failed operations: A %d, B %d\n", ra.Workload, ra.Result.Failed, rb.Result.Failed)
				ok = false
			}
			if ra.Trace {
				for _, m := range spec.PerLayer {
					va, vb := ra.Result.Metrics[m.Name].Value, rb.Result.Metrics[m.Name].Value
					if m.Unit == "count" && va != vb {
						fmt.Fprintf(w, "%-14s %-28s %14.6g %14.6g   count differs\n", ra.Workload, m.Name, va, vb)
						ok = false
					}
				}
				continue
			}
			for _, m := range spec.EndToEnd {
				va, vb := ra.Result.Metrics[m.Name].Value, rb.Result.Metrics[m.Name].Value
				worse := worsening(m.Better, va, vb)
				verdict := ""
				if worse > m.Bound {
					verdict = "  REGRESSION"
					ok = false
				}
				fmt.Fprintf(w, "%-14s %-28s %14.6g %14.6g %+7.1f%% %6.0f%%%s\n",
					ra.Workload, m.Name, va, vb, worse*100, m.Bound*100, verdict)
			}
		}
	}
	return ok, nil
}
