// acebench regenerates the paper's evaluation artifacts (Figures 5–7,
// Tables 10–11) at either full paper scale or reduced CI scale.
//
// Usage:
//
//	acebench -all                     # everything, reduced scale
//	acebench -all -scale paper        # the full six-ResNet suite
//	acebench -fig 6 -scale paper
//	acebench -tab 11 -images 1000
//	acebench -tab 8                   # repository LoC breakdown
//	acebench -profile-ops             # measured per-opcode profile
//	acebench -load http://host:8080 -clients 8 -duration 60s
//	                                  # concurrent-client load generator
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"antace/internal/costmodel"
	"antace/internal/experiments"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (5, 6, 7)")
	tab := flag.Int("tab", 0, "table to regenerate (8, 10, 11)")
	all := flag.Bool("all", false, "regenerate everything")
	scaleFlag := flag.String("scale", "reduced", "experiment scale: paper or reduced")
	images := flag.Int("images", 200, "Table 11: images for the trained-CNN accuracy run")
	resnetImages := flag.Int("resnet-images", 50, "Table 11: images for the ResNet agreement runs")
	calibrate := flag.Bool("calibrate", true, "microbenchmark the runtime for the cost model")
	autotune := flag.Bool("autotune", false, "calibrate, enumerate compilation plans for the reduced ResNet-20, measure chosen vs the naive-conv baseline and write -autotune-out")
	autotuneOut := flag.String("autotune-out", "BENCH_autotune.json", "autotune mode: file the report is written to")
	profileOps := flag.Bool("profile-ops", false, "compile the demo model, run one encrypted inference and print the measured per-opcode profile (Figure 6's measured analogue)")
	load := flag.String("load", "", "base URL of a live aced: run the concurrent-client load generator instead of the paper artifacts")
	clients := flag.Int("clients", 8, "load mode: number of concurrent clients")
	window := flag.Duration("duration", time.Minute, "load mode: measurement window (extended until at least one inference completes)")
	reqDeadline := flag.Duration("request-deadline", 30*time.Minute, "load mode: per-request deadline forwarded to the server")
	flag.Parse()

	if *load != "" {
		if err := runLoad(*load, *clients, *window, *reqDeadline); err != nil {
			fmt.Fprintf(os.Stderr, "load failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *profileOps {
		if err := runOpProfile(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "profile-ops failed: %v\n", err)
			os.Exit(1)
		}
		return
	}

	scale := experiments.ScaleReduced
	if *scaleFlag == "paper" {
		scale = experiments.ScalePaper
	}
	cal := costmodel.DefaultCalibration()
	if *calibrate {
		if c, err := costmodel.Calibrate(); err == nil {
			cal = c
			fmt.Printf("calibration: ntt=%.2e/butterfly pointwise=%.2e/coeff modup=%.2e muladd=%.2e moddown=%.2e (keyswitch cross-check: measured %.3gs vs predicted %.3gs)\n\n",
				c.NTTPerButterfly, c.PointwisePerCoeff,
				c.ModUpPerUnit, c.MulAddPerUnit, c.ModDownPerUnit,
				c.KeySwitchMeasuredSec, c.KeySwitchPredictedSec)
		}
	}

	if *autotune {
		if err := runAutotune(os.Stdout, *autotuneOut, cal); err != nil {
			fmt.Fprintf(os.Stderr, "autotune failed: %v\n", err)
			os.Exit(1)
		}
		return
	}

	run := func(name string, fn func() error) {
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	want := func(f, t int) bool {
		return *all || (f != 0 && *fig == f) || (t != 0 && *tab == t)
	}

	if want(5, 0) {
		run("Figure 5", func() error { return experiments.Figure5(os.Stdout, scale) })
	}
	if want(6, 0) {
		run("Figure 6", func() error { _, err := experiments.Figure6(os.Stdout, scale, cal); return err })
	}
	if want(7, 0) {
		run("Figure 7", func() error { _, err := experiments.Figure7(os.Stdout, scale, cal); return err })
	}
	if want(0, 8) {
		run("Table 8 (LoC breakdown of this repository)", table8)
	}
	if want(0, 10) {
		run("Table 10", func() error { _, err := experiments.Table10(os.Stdout, scale); return err })
	}
	if want(0, 11) {
		run("Table 11", func() error { _, err := experiments.Table11(os.Stdout, *images, *resnetImages); return err })
	}
	if !*all && *fig == 0 && *tab == 0 {
		flag.Usage()
	}
}

// table8 counts lines of code per component, mirroring the paper's
// Table 8 presentation.
func table8() error {
	groups := map[string][]string{
		"Infrastructure":    {"internal/ir", "internal/onnx", "internal/core", "internal/vm", "internal/experiments", "internal/costmodel", "cmd", "internal/tensor", "internal/dataset", "internal/train"},
		"NN IR":             {"internal/nnir"},
		"VECTOR IR":         {"internal/vecir"},
		"SIHE IR":           {"internal/sihe", "internal/poly"},
		"CKKS IR":           {"internal/ckksir"},
		"POLY IR":           {"internal/polyir"},
		"Run-Time Library":  {"internal/nt", "internal/ring", "internal/ckks", "internal/kswork", "internal/bootstrap"},
		"Examples + facade": {"examples", "."},
	}
	order := []string{"Infrastructure", "NN IR", "VECTOR IR", "SIHE IR", "CKKS IR", "POLY IR", "Run-Time Library", "Examples + facade"}
	fmt.Printf("%-18s %8s %8s\n", "Component", "LOC", "Tests")
	totalLoc, totalTest := 0, 0
	for _, name := range order {
		loc, test := 0, 0
		for _, dir := range groups[name] {
			l, t := countDir(dir, name == "Examples + facade" && dir == ".")
			loc += l
			test += t
		}
		totalLoc += loc
		totalTest += test
		fmt.Printf("%-18s %8d %8d\n", name, loc, test)
	}
	fmt.Printf("%-18s %8d %8d\n", "Total", totalLoc, totalTest)
	return nil
}

func countDir(dir string, topOnly bool) (loc, test int) {
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			if info != nil && info.IsDir() && topOnly && path != dir {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		n := strings.Count(string(data), "\n")
		if strings.HasSuffix(path, "_test.go") {
			test += n
		} else {
			loc += n
		}
		return nil
	})
	return
}
