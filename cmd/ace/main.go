// ace is the compiler command-line driver: it compiles an ONNX model for
// encrypted inference, optionally writes the compiled program as an
// artifact that cmd/acerun runs (the paper's code-generation step), runs
// encrypted inference on a random or provided input, or just reports the
// compilation (parameters, key analysis, per-IR timings).
//
// Usage:
//
//	ace compile [-profile paper|test] [-o outdir] model.onnx
//	ace run     [-profile paper|test] model.onnx
//	ace info    [-profile paper|test] model.onnx
//	ace demo    [-depth 8]            (build + run a reduced ResNet)
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"antace"
	"antace/internal/onnx"
	"antace/internal/tensor"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ace <compile|run|info|demo> [flags] [model.onnx]")
	flag.PrintDefaults()
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	profile := fs.String("profile", "test", "compilation profile: paper (128-bit security) or test (reduced scale)")
	outDir := fs.String("o", "ace_out", "output directory for the compiled program (compile)")
	depth := fs.Int("depth", 8, "ResNet depth for demo")
	if err := fs.Parse(os.Args[2:]); err != nil {
		usage()
	}

	prof := ace.TestProfile()
	if *profile == "paper" {
		prof = ace.PaperProfile()
	}

	var model *ace.Model
	var err error
	switch cmd {
	case "demo":
		model, err = onnx.BuildResNet(onnx.ResNetConfig{Depth: *depth, InputSize: 8, BaseChannels: 4, Classes: 10})
	case "compile", "run", "info":
		if fs.NArg() != 1 {
			usage()
		}
		model, err = ace.LoadONNX(fs.Arg(0))
	default:
		usage()
	}
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	prog, err := ace.Compile(model, prof)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "compiled %s in %s\n", model.Graph.Name, time.Since(start).Round(time.Millisecond))
	ace.Describe(prog, os.Stderr)

	switch cmd {
	case "info":
		return
	case "compile":
		if err := ace.WriteArtifact(prog, *outDir); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s/program.ace; run it with acerun %s/program.ace\n", *outDir, *outDir)
	case "run", "demo":
		if *profile == "paper" {
			fmt.Fprintln(os.Stderr, "note: paper-profile execution at N=2^16 takes hours per image")
		}
		rt, err := ace.NewRuntime(prog)
		if err != nil {
			fatal(err)
		}
		shape := prog.NN.Main().Params[0].Type.Shape
		rng := rand.New(rand.NewPCG(uint64(time.Now().UnixNano()), 1))
		image := tensor.New(shape...)
		for i := range image.Data {
			image.Data[i] = rng.Float64()*2 - 1
		}
		start = time.Now()
		enc, err := rt.Infer(image)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "encrypted inference: %s\n", time.Since(start).Round(time.Millisecond))
		plain, _ := ace.InferPlain(prog, image)
		fmt.Println("encrypted:", head(enc.Data))
		fmt.Println("plaintext:", head(plain.Data))
		fmt.Printf("argmax: encrypted=%d plaintext=%d\n", tensor.ArgMax(enc), tensor.ArgMax(plain))
	}
}

func head(v []float64) []float64 {
	if len(v) > 10 {
		return v[:10]
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ace:", err)
	os.Exit(1)
}
