// acerun runs a compiled program that `ace compile -o DIR` wrote to
// DIR/program.ace: it generates keys, encrypts an input, evaluates the
// program on the ciphertext, decrypts and prints the first 16 slots.
//
// Usage:
//
//	acerun DIR/program.ace [packed-input.bin]
//
// The input is the packed slot vector, one little-endian float64 per
// slot; without it a deterministic test vector, slot i = 0.1·sin(i), is
// used.
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"antace/internal/ckksir"
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
		return fmt.Errorf("usage: acerun program.ace [packed-input.bin]")
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
	vecLen := f.Params[0].Type.Len()
	input := make([]float64, vecLen)
	if len(args) == 2 {
		raw, err := os.ReadFile(args[1])
		if err != nil {
			return err
		}
		if len(raw) != 8*vecLen {
			return fmt.Errorf("input must hold exactly %d float64 values, %s holds %d bytes", vecLen, args[1], len(raw))
		}
		for i := range input {
			input[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	} else {
		for i := range input {
			input[i] = math.Sin(float64(i)) * 0.1
		}
	}

	machine, client, err := vm.New(&res, vecLen, nil)
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
	for _, v := range client.Decrypt(out)[:min(16, vecLen)] {
		fmt.Fprintf(w, "%.6f ", v)
	}
	fmt.Fprintln(w)
	return nil
}
