// acerun runs a compiled program that `ace compile -o DIR` wrote to
// DIR/program.ace: it generates keys, packs and encrypts an input
// tensor, evaluates the program on the ciphertext, decrypts, unpacks and
// prints the model's outputs.
//
// Usage:
//
//	acerun DIR/program.ace [input.bin]
//
// The input is the model's input tensor, C·H·W little-endian float64
// values in (C, H, W) row-major order; the artifact's input layout packs
// it into the slot vector. Without it a deterministic test tensor,
// element i = 0.1·sin(i), is used. The output is unpacked through the
// artifact's output layout: one value per model output (the logits of a
// classifier), on one line.
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"antace/internal/ckksir"
	"antace/internal/vecir"
	"antace/internal/vm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "acerun:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: acerun program.ace [input.bin]")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	var res ckksir.Result
	if err := res.UnmarshalBinary(data); err != nil {
		return err
	}
	f := res.Module.Main()
	if len(f.Params) != 1 {
		return fmt.Errorf("program takes %d inputs, want 1", len(f.Params))
	}
	inLay, outLay, err := vecir.Layouts(res.Module)
	if err != nil {
		return err
	}
	tensor := make([]float64, inLay.C*inLay.H*inLay.W)
	if len(args) == 2 {
		raw, err := os.ReadFile(args[1])
		if err != nil {
			return err
		}
		if len(raw) != 8*len(tensor) {
			return fmt.Errorf("input must hold exactly %d float64 values (%dx%dx%d), %s holds %d bytes", len(tensor), inLay.C, inLay.H, inLay.W, args[1], len(raw))
		}
		for i := range tensor {
			tensor[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	} else {
		for i := range tensor {
			tensor[i] = math.Sin(float64(i)) * 0.1
		}
	}
	input, err := inLay.Pack(tensor)
	if err != nil {
		return err
	}

	machine, client, err := vm.New(&res, len(input), nil)
	if err != nil {
		return err
	}
	ct, err := client.Encrypt(input)
	if err != nil {
		return err
	}
	out, err := machine.Run(res.Module, ct)
	if err != nil {
		return err
	}
	outputs, err := outLay.Unpack(client.Decrypt(out))
	if err != nil {
		return err
	}
	for _, v := range outputs {
		fmt.Fprintf(w, "%.6f ", v)
	}
	fmt.Fprintln(w)
	return nil
}
