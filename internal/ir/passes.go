package ir

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Pass transforms a module. Level names a paper IR level
// ("NN", "VECTOR", "SIHE", "CKKS", "POLY", or "Others") so the pass
// manager can attribute compile time per level (Figure 5).
type Pass interface {
	Name() string
	Level() string
	Run(m *Module) error
}

// FuncPass adapts a per-function transformation into a Pass.
type FuncPass struct {
	PassName  string
	PassLevel string
	Fn        func(f *Func) error
}

func (p FuncPass) Name() string  { return p.PassName }
func (p FuncPass) Level() string { return p.PassLevel }
func (p FuncPass) Run(m *Module) error {
	for _, f := range m.Funcs {
		if err := p.Fn(f); err != nil {
			return fmt.Errorf("%s: %s: %w", p.PassName, f.Name, err)
		}
	}
	return nil
}

// PassManager runs a pipeline and records per-pass and per-level wall
// times.
type PassManager struct {
	passes  []Pass
	Trace   io.Writer
	Timings []PassTiming
}

// PassTiming records one pass execution.
type PassTiming struct {
	Pass     string
	Level    string
	Duration time.Duration
}

// Add appends passes to the pipeline.
func (pm *PassManager) Add(ps ...Pass) { pm.passes = append(pm.passes, ps...) }

// Run executes the pipeline.
func (pm *PassManager) Run(m *Module) error {
	for _, p := range pm.passes {
		start := time.Now()
		err := p.Run(m)
		d := time.Since(start)
		pm.Timings = append(pm.Timings, PassTiming{Pass: p.Name(), Level: p.Level(), Duration: d})
		if pm.Trace != nil {
			fmt.Fprintf(pm.Trace, "pass %-30s %-7s %12v %v\n", p.Name(), p.Level(), d, errString(err))
		}
		if err != nil {
			return fmt.Errorf("pass %s: %w", p.Name(), err)
		}
	}
	return nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return "ERROR: " + err.Error()
}

// LevelBreakdown aggregates pass timings per IR level.
func (pm *PassManager) LevelBreakdown() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, t := range pm.Timings {
		out[t.Level] += t.Duration
	}
	return out
}

// DCE removes instructions whose results are never used (transitively).
func DCE() Pass {
	return FuncPass{PassName: "dce", PassLevel: "Others", Fn: func(f *Func) error {
		live := map[*Value]bool{}
		if f.Ret != nil {
			live[f.Ret] = true
		}
		// Walk backwards: an instruction is live if its result is.
		kept := make([]*Instr, 0, len(f.Body))
		for i := len(f.Body) - 1; i >= 0; i-- {
			in := f.Body[i]
			if !live[in.Result] && !hasSideEffects(in.Op) {
				continue
			}
			kept = append(kept, in)
			for _, a := range in.Args {
				live[a] = true
			}
		}
		// Reverse back into program order.
		for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
			kept[i], kept[j] = kept[j], kept[i]
		}
		f.Body = kept
		return nil
	}}
}

func hasSideEffects(op string) bool {
	return strings.HasSuffix(op, ".debug") || strings.HasSuffix(op, ".output")
}

// CSE merges structurally identical instructions (same op, args, attrs).
func CSE() Pass {
	return FuncPass{PassName: "cse", PassLevel: "Others", Fn: func(f *Func) error {
		seen := map[string]*Value{}
		replace := map[*Value]*Value{}
		kept := f.Body[:0]
		for _, in := range f.Body {
			for i, a := range in.Args {
				if r, ok := replace[a]; ok {
					in.Args[i] = r
				}
			}
			key := instrKey(in)
			if prev, ok := seen[key]; ok {
				replace[in.Result] = prev
				continue
			}
			seen[key] = in.Result
			kept = append(kept, in)
		}
		f.Body = kept
		if r, ok := replace[f.Ret]; ok {
			f.Ret = r
		}
		return nil
	}}
}

// instrKey builds a structural hash key for CSE. Constant values are
// keyed by identity (the lowering interns shared constants).
func instrKey(in *Instr) string {
	var sb strings.Builder
	sb.WriteString(in.Op)
	for _, a := range in.Args {
		fmt.Fprintf(&sb, "|%d", a.ID)
	}
	for _, k := range SortedAttrKeys(in.Attrs) {
		fmt.Fprintf(&sb, "|%s=%v", k, attrKeyString(in.Attrs[k]))
	}
	return sb.String()
}

func attrKeyString(v any) string {
	switch t := v.(type) {
	case []int:
		return fmt.Sprint(t)
	case []float64:
		if len(t) > 8 {
			// Long payloads: identity is cheaper and safe (they are
			// interned by the lowerings).
			return fmt.Sprintf("f64@%p", t)
		}
		return fmt.Sprint(t)
	default:
		return fmt.Sprint(v)
	}
}

// Print renders a function as text.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s: %s", p, p.Type)
	}
	sb.WriteString(") {\n")
	for _, in := range f.Body {
		sb.WriteString("  ")
		fmt.Fprintf(&sb, "%s = %s", in.Result, in.Op)
		for _, a := range in.Args {
			if a.IsConst() {
				fmt.Fprintf(&sb, " const:%s", a.Type)
			} else {
				fmt.Fprintf(&sb, " %s", a)
			}
		}
		if len(in.Attrs) > 0 {
			parts := []string{}
			for _, k := range SortedAttrKeys(in.Attrs) {
				parts = append(parts, fmt.Sprintf("%s=%s", k, attrKeyString(in.Attrs[k])))
			}
			fmt.Fprintf(&sb, " {%s}", strings.Join(parts, ", "))
		}
		fmt.Fprintf(&sb, " : %s\n", in.Result.Type)
	}
	if f.Ret != nil {
		fmt.Fprintf(&sb, "  return %s\n", f.Ret)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// String renders the whole module.
func (m *Module) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n", m.Name)
	keys := SortedAttrKeys(m.Attrs)
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "  attr %s = %v\n", k, m.Attrs[k])
	}
	for _, f := range m.Funcs {
		sb.WriteString(f.String())
	}
	return sb.String()
}
