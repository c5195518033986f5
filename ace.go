// Package ace is the public interface of the ANT-ACE-in-Go FHE compiler
// framework: it compiles ONNX neural-network inference models into
// programs that run on encrypted data under the RNS-CKKS scheme, fully
// automatically — operator lowering through five IR levels, nonlinear
// (ReLU) polynomial approximation, scale and level management, minimal-
// level bootstrapping placement, security parameter selection, and
// rotation-key analysis.
//
// Quick start:
//
//	model, _ := ace.LoadONNX("resnet20.onnx")
//	prog, _ := ace.Compile(model, ace.TestProfile())
//	rt, _ := ace.NewRuntime(prog)
//	out, _ := rt.Infer(image)           // image: *tensor.Tensor, NCHW
//
// See examples/ for complete programs.
package ace

import (
	"fmt"
	"io"

	"antace/internal/bootstrap"
	"antace/internal/ckks"
	"antace/internal/ckksir"
	"antace/internal/codegen"
	"antace/internal/core"
	"antace/internal/onnx"
	"antace/internal/sihe"
	"antace/internal/tensor"
	"antace/internal/vm"
)

// Model is an ONNX inference model.
type Model = onnx.Model

// Tensor is the dense tensor type used for inputs and outputs.
type Tensor = tensor.Tensor

// Profile is a compilation configuration.
type Profile = core.Config

// Program is a compiled model: the full five-level IR stack plus the
// selected CKKS parameters.
type Program = core.Compiled

// LoadONNX reads an ONNX model from disk.
func LoadONNX(path string) (*Model, error) { return onnx.Load(path) }

// SaveONNX writes an ONNX model to disk.
func SaveONNX(m *Model, path string) error { return onnx.Save(m, path) }

// PaperProfile compiles at the paper's full deployment scale: 128-bit
// security, q0 = 2^60, Delta = 2^56 (Table 10 reproduces on the ResNet
// family: log2 N = 16). Compilation takes seconds per model; actual
// encrypted execution at this scale takes hours per image, exactly as
// the paper reports.
func PaperProfile() Profile {
	return core.Config{
		SIHE: sihe.Options{ReLUAlpha: 9, ReLUEps: 1.0 / 8},
		CKKS: ckksir.Options{
			LogQ0:    60,
			LogScale: 56,
			Mode:     ckksir.BootstrapAlways,
			Boot:     bootstrap.Parameters{EvalModDegree: 24, DoubleAngle: 2},
		},
	}
}

// TestProfile compiles at reduced scale for functional runs: the ring
// degree follows the slot demand rather than the 128-bit security floor,
// so real encrypted inference of small models completes in seconds.
// Never deploy with this profile.
func TestProfile() Profile {
	return core.Config{
		SIHE: sihe.Options{ReLUAlpha: 5, ReLUEps: 0.125},
		CKKS: ckksir.Options{LogScale: 40, Mode: ckksir.BootstrapAuto, IgnoreSecurity: true},
	}
}

// Compile runs the full pipeline on a model.
func Compile(m *Model, p Profile) (*Program, error) { return core.Compile(m, p) }

// EmitGo generates a standalone Go program (plus external weights file)
// for a compiled model, the analogue of the paper's C/C++ code
// generation.
func EmitGo(prog *Program, dir string) error { return codegen.Generate(prog, dir) }

// Runtime executes a compiled program on encrypted data. It bundles the
// server side (parameters, evaluation keys, evaluator, bootstrapper) and
// the client side (secret key, encoder, packing) for in-process use; a
// real deployment would split the two halves.
type Runtime struct {
	prog    *Program
	machine *vm.Machine
	client  *vm.Client
}

// NewRuntime instantiates parameters and keys for a compiled program.
func NewRuntime(prog *Program) (*Runtime, error) {
	machine, client, err := vm.New(prog.CKKS, prog.VectorLen(), nil)
	if err != nil {
		return nil, err
	}
	return &Runtime{prog: prog, machine: machine, client: client}, nil
}

// Infer runs encrypted inference on one input tensor: pack, encrypt,
// evaluate homomorphically, decrypt, unpack.
func (rt *Runtime) Infer(image *Tensor) (*Tensor, error) {
	ct, err := rt.Encrypt(image)
	if err != nil {
		return nil, err
	}
	out, err := rt.machine.Run(rt.prog.CKKS.Module, ct)
	if err != nil {
		return nil, err
	}
	return rt.Decrypt(out)
}

// Encrypt packs and encrypts an input tensor (the ANT-ACE-generated
// encryptor of the paper's threat model).
func (rt *Runtime) Encrypt(image *Tensor) (*ckks.Ciphertext, error) {
	packed, err := rt.prog.Vec.InLayout.Pack(image.Data)
	if err != nil {
		return nil, err
	}
	return rt.client.Encrypt(packed)
}

// Run evaluates the compiled program on an encrypted input (server side).
func (rt *Runtime) Run(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	return rt.machine.Run(rt.prog.CKKS.Module, ct)
}

// Decrypt decrypts and unpacks an output ciphertext (the generated
// decryptor).
func (rt *Runtime) Decrypt(ct *ckks.Ciphertext) (*Tensor, error) {
	vals, err := rt.prog.Vec.OutLayout.Unpack(rt.client.Decrypt(ct))
	if err != nil {
		return nil, err
	}
	return tensor.FromData(vals, rt.prog.Vec.OutLayout.C), nil
}

// KeyCount reports the number of Galois keys the runtime generated
// (the compiler's rotation analysis plus the bootstrap circuit's).
func (rt *Runtime) KeyCount() int { return rt.machine.KeyCount }

// InferPlain runs the unencrypted reference for comparison.
func InferPlain(prog *Program, image *Tensor) (*Tensor, error) { return prog.RunPlain(image) }

// InferSim runs the encrypted-arithmetic simulator (identical polynomial
// approximations, no noise) — useful for accuracy sweeps where real FHE
// would take hours.
func InferSim(prog *Program, image *Tensor) (*Tensor, error) { return prog.RunSim(image) }

// Describe prints a human-readable compilation report.
func Describe(prog *Program, w io.Writer) {
	fmt.Fprintln(w, prog.Summary())
	fmt.Fprintf(w, "  parameters: logN=%d, chain=%v, logP=%v\n",
		prog.CKKS.Literal.LogN, prog.CKKS.Literal.LogQ, prog.CKKS.Literal.LogP)
	fmt.Fprintf(w, "  input: level %d, scale 2^%d; segments %v\n",
		prog.CKKS.InputLevel, prog.CKKS.Literal.LogScale, prog.CKKS.SegmentDepths)
	for _, t := range prog.Timings {
		fmt.Fprintf(w, "  %-7s %-18s %s\n", t.Level, t.Pass, t.Duration)
	}
}
