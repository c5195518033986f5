package ir

import (
	"fmt"
	"io"
	"sort"
	"strconv"
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
		live := NewValues[bool](f)
		if f.Ret != nil {
			live.Set(f.Ret, true)
		}
		// Walk backwards: an instruction is live if its result is.
		kept := make([]*Instr, 0, len(f.Body))
		for i := len(f.Body) - 1; i >= 0; i-- {
			in := f.Body[i]
			if !live.Get(in.Result) && !hasSideEffects(in.Op) {
				continue
			}
			kept = append(kept, in)
			for _, a := range in.Args {
				live.Set(a, true)
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
		replace := NewValues[*Value](f)
		kept := f.Body[:0]
		var key []byte
		for _, in := range f.Body {
			for i, a := range in.Args {
				if r := replace.Get(a); r != nil {
					in.Args[i] = r
				}
			}
			key = appendInstrKey(key[:0], in)
			if prev, ok := seen[string(key)]; ok {
				replace.Set(in.Result, prev)
				continue
			}
			seen[string(key)] = in.Result
			kept = append(kept, in)
		}
		f.Body = kept
		if r := replace.Get(f.Ret); r != nil {
			f.Ret = r
		}
		return nil
	}}
}

// appendInstrKey appends a structural key of in for CSE to b: op,
// argument IDs, then the attributes in sorted key order. Constant values
// are keyed by identity (the lowering interns shared constants).
func appendInstrKey(b []byte, in *Instr) []byte {
	b = append(b, in.Op...)
	for _, a := range in.Args {
		b = strconv.AppendInt(append(b, '|'), int64(a.ID), 10)
	}
	for _, k := range SortedAttrKeys(in.Attrs) {
		b = append(append(append(b, '|'), k...), '=')
		b = appendAttrKey(b, in.Attrs[k])
	}
	return b
}

// appendAttrKey appends an attribute value's key text to b, without fmt
// for the attribute types the lowerings emit.
func appendAttrKey(b []byte, v any) []byte {
	switch t := v.(type) {
	case int:
		return strconv.AppendInt(b, int64(t), 10)
	case float64:
		return strconv.AppendFloat(b, t, 'g', -1, 64)
	case string:
		return append(b, t...)
	case bool:
		return strconv.AppendBool(b, t)
	case []int:
		b = append(b, '[')
		for i, x := range t {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(x), 10)
		}
		return append(b, ']')
	case []float64:
		if len(t) > 8 {
			// Long payloads: identity is cheaper and safe (they are
			// interned by the lowerings).
			return fmt.Appendf(b, "f64@%p", t)
		}
	}
	return fmt.Append(b, v)
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
				parts = append(parts, fmt.Sprintf("%s=%s", k, appendAttrKey(nil, in.Attrs[k])))
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
