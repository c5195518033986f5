// Package codegen emits a standalone Go program for a compiled model —
// the analogue of the paper's C/C++ code generation. Following the
// paper's design (§3.4), the bulky constants (encoded mask and weight
// vectors) are stored in an external binary file, keeping the generated
// source small and fast to build; the program reconstructs the CKKS
// instruction stream and executes it with the runtime library.
package codegen

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"antace/internal/ckksir"
	"antace/internal/core"
	"antace/internal/ir"
)

// Generate writes <dir>/main.go and <dir>/weights.bin for a compiled
// model. The generated program reads a packed input vector (one float64
// per slot, little endian) from stdin or a file argument, runs encrypted
// inference end to end (keygen, encrypt, evaluate, decrypt), and prints
// the output vector.
func Generate(c *core.Compiled, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	wf, err := os.Create(filepath.Join(dir, "weights.bin"))
	if err != nil {
		return err
	}
	defer wf.Close()

	var sb strings.Builder
	offsets := map[*ir.Instr][2]int64{} // encode instr -> (offset, length)
	var cursor int64
	f := c.CKKS.Module.Main()
	for _, in := range f.Body {
		if in.Op != ckksir.OpEncode {
			continue
		}
		vec, ok := in.Args[0].Const.([]float64)
		if !ok {
			return fmt.Errorf("codegen: encode argument is not a vector constant")
		}
		if err := writeFloats(wf, vec); err != nil {
			return err
		}
		offsets[in] = [2]int64{cursor, int64(len(vec))}
		cursor += int64(len(vec)) * 8
	}

	if err := emitProgram(&sb, c, offsets); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "main.go"), []byte(sb.String()), 0o644)
}

func writeFloats(w io.Writer, vec []float64) error {
	buf := make([]byte, 8*len(vec))
	for i, v := range vec {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	_, err := w.Write(buf)
	return err
}

// emitProgram writes the Go source. The instruction stream is encoded as
// a compact table the generated main interprets — the same structure the
// paper's generated C uses (calls into the runtime library driven by the
// compiled schedule).
func emitProgram(sb *strings.Builder, c *core.Compiled, offsets map[*ir.Instr][2]int64) error {
	lit := c.CKKS.Literal
	f := c.CKKS.Module.Main()

	fmt.Fprintf(sb, `// Code generated by the ANT-ACE-in-Go compiler for model %q. DO NOT EDIT.
//
// Build and run from the repository root:
//
//	go run ./%s [packed-input.bin]
//
// The input is the packed slot vector (%d little-endian float64 values);
// when no file is given, a deterministic test vector is used.
package main

`, c.Name, "<output dir>", c.VectorLen())
	sb.WriteString(`import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"antace/internal/ckksir"
	"antace/internal/ir"
	"antace/internal/vm"

	"antace/internal/bootstrap"
	"antace/internal/ckks"
)

`)
	// Parameter literal and program table.
	fmt.Fprintf(sb, "var literal = ckks.ParametersLiteral{LogN: %d, LogQ: %#v, LogP: %#v, LogScale: %d}\n\n",
		lit.LogN, lit.LogQ, lit.LogP, lit.LogScale)
	if c.CKKS.Boot != nil {
		// %#v spells out every field, so one the compiler adds to its choice
		// reaches the generated program without an edit here.
		fmt.Fprintf(sb, "var bootParams = &%#v\n\n", *c.CKKS.Boot)
	} else {
		sb.WriteString("var bootParams *bootstrap.Parameters\n\n")
	}
	fmt.Fprintf(sb, "const (\n\tvecLen = %d\n\tinputLevel = %d\n)\n\n", c.VectorLen(), c.CKKS.InputLevel)
	fmt.Fprintf(sb, "var inputScale = %g\n\n", c.CKKS.InputScale)

	// Instructions: op, args (indices into the value table), attrs.
	sb.WriteString("// step encodes one compiled instruction.\n")
	sb.WriteString("type step struct {\n\top string\n\targs []int\n\tattrs map[string]any\n\tweightOff, weightLen int64\n\tkind ir.Kind\n\toutLevel int\n\toutScale float64\n}\n\n")
	sb.WriteString("var program = []step{\n")
	valueIdx := map[*ir.Value]int{}
	next := 0
	id := func(v *ir.Value) int {
		if idx, ok := valueIdx[v]; ok {
			return idx
		}
		valueIdx[v] = next
		next++
		return valueIdx[v]
	}
	id(f.Params[0])
	for _, in := range f.Body {
		args := make([]string, 0, len(in.Args))
		for _, a := range in.Args {
			if a.IsConst() {
				args = append(args, "-1")
				continue
			}
			args = append(args, fmt.Sprint(id(a)))
		}
		fmt.Fprintf(sb, "\t{op: %q, args: []int{%s}", in.Op, strings.Join(args, ", "))
		attrs, err := attrsLiteral(in.Attrs)
		if err != nil {
			return fmt.Errorf("codegen: %s: %w", in.Op, err)
		}
		fmt.Fprintf(sb, ", attrs: %s", attrs)
		if off, ok := offsets[in]; ok {
			fmt.Fprintf(sb, ", weightOff: %d, weightLen: %d", off[0], off[1])
		}
		fmt.Fprintf(sb, ", kind: %d, outLevel: %d, outScale: %g},\n", in.Result.Type.Kind, in.Result.Level, in.Result.Scale)
		id(in.Result)
	}
	sb.WriteString("}\n\n")
	fmt.Fprintf(sb, "var retIndex = %d\n\n", valueIdx[f.Ret])

	// The driver body reconstructs an ir.Module from the table and runs
	// it through the vm.
	sb.WriteString(driverBody)
	return nil
}

// attrsLiteral renders an instruction's attributes as a Go map literal
// with sorted keys. Every attribute travels this one way, whatever the
// op, so the generated program rebuilds exactly the instruction the vm
// would have been handed; the bulky vectors are not attributes and stay
// in weights.bin.
func attrsLiteral(attrs map[string]any) (string, error) {
	var sb strings.Builder
	sb.WriteString("map[string]any{")
	for _, k := range ir.SortedAttrKeys(attrs) {
		switch v := attrs[k].(type) {
		case float64: // spelt out: a bare 1 in a map[string]any is an int
			fmt.Fprintf(&sb, "%q: float64(%g), ", k, v)
		case int, bool, string, []int, []float64:
			fmt.Fprintf(&sb, "%q: %#v, ", k, v)
		default:
			return "", fmt.Errorf("attribute %q has unsupported type %T", k, v)
		}
	}
	sb.WriteString("}")
	return sb.String(), nil
}

const driverBody = `func rebuild(weights []byte) (*ir.Module, *ckksir.Result) {
	mod := ir.NewModule("generated")
	fn := mod.NewFunc("main")
	values := map[int]*ir.Value{}
	p := fn.NewParam("input", ir.CipherType(vecLen))
	p.Level, p.Scale = inputLevel, inputScale
	values[0] = p
	nextIdx := 1
	for _, st := range program {
		var args []*ir.Value
		if st.weightLen > 0 {
			vec := make([]float64, st.weightLen)
			for i := range vec {
				vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(weights[st.weightOff+int64(8*i):]))
			}
			args = []*ir.Value{fn.NewConst("w", ir.VectorType(vecLen), vec)}
		}
		for _, ai := range st.args {
			if ai >= 0 {
				args = append(args, values[ai])
			}
		}
		out := fn.Emit(st.op, ir.Type{Kind: st.kind, Shape: []int{vecLen}}, args, st.attrs)
		out.Level, out.Scale = st.outLevel, st.outScale
		values[nextIdx] = out
		nextIdx++
	}
	fn.Ret = values[retIndex]
	res := &ckksir.Result{
		Module: mod, Literal: literal, Boot: bootParams,
		InputLevel: inputLevel, InputScale: inputScale,
	}
	return mod, res
}

func main() {
	weights, err := os.ReadFile("weights.bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cannot read weights.bin (run from the generated directory):", err)
		os.Exit(1)
	}
	input := make([]float64, vecLen)
	if len(os.Args) > 1 {
		raw, err := os.ReadFile(os.Args[1])
		if err != nil || len(raw) != 8*vecLen {
			fmt.Fprintln(os.Stderr, "input must hold exactly", vecLen, "float64 values")
			os.Exit(1)
		}
		for i := range input {
			input[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	} else {
		for i := range input {
			input[i] = math.Sin(float64(i)) * 0.1
		}
	}
	mod, res := rebuild(weights)
	machine, client, err := vm.New(res, vecLen, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ctIn, err := client.Encrypt(input)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	out, err := machine.Run(mod, ctIn)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, v := range client.Decrypt(out)[:min(16, vecLen)] {
		fmt.Printf("%.6f ", v)
	}
	fmt.Println()
}
`
