// Command bench is the repository's one benchmark: four workloads that
// between them exercise every layer of the stack from outside, two
// end-to-end metrics measured with tracing off, and per-layer numbers
// from a traced run. BENCHMARK.json at the repository root declares the
// metric names, units, directions and bounds; this program reads it so
// the two cannot drift. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"antace/internal/par"
)

// runLimit bounds one workload run, set-up included, so a hang ends as a
// failed run inside the pipeline's 180 s allowance.
const runLimit = 170 * time.Second

// pinnedWorkers is the par pool size for the harness and, through
// ACE_WORKERS, for the daemons it boots. pinnedProcs is the harness's
// GOMAXPROCS: with one worker the only other user of a second core is
// the garbage collector, which takes it when it is idle and does the
// same work on the first when it is not, so how long an operation takes
// would depend on what else the box is doing.
const (
	pinnedWorkers = 1
	pinnedWhy     = "nested par.For deadlocks at 2 workers (ROADMAP blocking defect); a workers = nproc workload follows its fix"
	pinnedProcs   = 1
)

var errWatchdog = errors.New("watchdog: operation exceeded its deadline")

// withDeadline runs f and gives up after limit. A run that gives up is
// abandoned, not cancelled: the caller stops the workload and the
// process exits, which is the only way to stop a wedged evaluation.
func withDeadline(limit time.Duration, f func() error) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return errWatchdog
	}
}

// runCtx is what a workload receives: the generated-input seed, the
// length of the measured window, and the span recorder (nil untraced).
type runCtx struct {
	seed    uint64
	seconds float64
	rec     *recorder
	tmpDir  string // scratch inside the checkout, removed by the caller
	binDir  string // where run.sh put aced and acerouter

	mu      sync.Mutex
	cleanup func() // stops child processes; set by serve_mixed
}

func (c *runCtx) traced() bool { return c.rec != nil }

func (c *runCtx) setCleanup(f func()) {
	c.mu.Lock()
	c.cleanup = f
	c.mu.Unlock()
}

func (c *runCtx) runCleanup() {
	c.mu.Lock()
	f := c.cleanup
	c.cleanup = nil
	c.mu.Unlock()
	if f != nil {
		f()
	}
}

// outcome is what a workload measured. Times are seconds.
type outcome struct {
	setupS    float64   // set-up time: the median of each repeated phase, summed
	setups    int       // how often the repeated phases ran
	ops       []float64 // client-observed latency of each successful untraced operation
	tracedOps []float64 // the same for operations run with tracing on
	succeeded int       // operations that completed with a correct output
	attempted int
	elapsed   float64 // wall time the attempted operations took
	// cpuPerOp is the processor time the benchmark's processes used per
	// successful operation, one value per slice of the window: a slice is
	// one operation where one process does all the work, a second of the
	// window where several do.
	cpuPerOp []float64
	layers   map[string]float64
}

type workload struct {
	name string
	run  func(*runCtx) (*outcome, error)
}

var workloads = []workload{
	{"compile_zoo", runCompileZoo},
	{"infer_gemv", func(c *runCtx) (*outcome, error) { return runInfer(c, gemvSpec) }},
	{"infer_resnet8", func(c *runCtx) (*outcome, error) { return runInfer(c, resnet8Spec) }},
	{"serve_mixed", runServeMixed},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// metricSpec and benchSpec mirror the parts of BENCHMARK.json the
// harness uses.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the pipeline reads: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one run in the ledger file.
type runRecord struct {
	Workload string   `json:"workload"`
	Trace    bool     `json:"trace"`
	Seed     uint64   `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Setups   int      `json:"setup_samples"`
	Samples  int      `json:"op_samples"`
	Slices   int      `json:"cpu_slices"`
	Wall     wallView `json:"wall"`
	Result   result   `json:"result"`
}

type machine struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	WorkersWhy string `json:"workers_why"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

type ledger struct {
	Machine machine     `json:"machine"`
	Runs    []runRecord `json:"runs"`
}

func machineShape() machine {
	m := machine{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers: pinnedWorkers, WorkersWhy: pinnedWhy,
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// endToEnd derives the bounded metrics from an outcome. The cost of an
// operation is processor time, not elapsed time: on a shared box elapsed
// time follows whatever else the cores are doing (runs of the same code
// spread by a third), processor time does not. It is the lower quartile
// over the slices, not the median: what the host adds to a slice it never
// takes from another, and over twenty runs per workload, some of them in
// the host's slow minutes, the quartile spread by at most 12.5 % where the
// median spread by 16 %. The elapsed-time view is reported too, unbounded
// (wallView).
func endToEnd(o *outcome) map[string]float64 {
	m := map[string]float64{"setup_s": o.setupS}
	if len(o.cpuPerOp) > 0 {
		m["cpu_ms_per_op"] = quantile(o.cpuPerOp, 0.25) * 1e3
	}
	return m
}

// wallView is what a caller's clock showed, bounded nowhere: the median
// latency of an operation and the rate of successful ones.
type wallView struct {
	MsP50   float64 `json:"ms_p50"`
	OpsPerS float64 `json:"ops_per_s"`
}

func wallOf(o *outcome) wallView {
	v := wallView{MsP50: median(append(append([]float64(nil), o.ops...), o.tracedOps...)) * 1e3}
	if o.elapsed > 0 {
		v.OpsPerS = float64(o.succeeded) / o.elapsed
	}
	return v
}

// declared maps measured values onto the metrics BENCHMARK.json lists.
// A per-layer metric the workload does not touch reads 0; a value with
// no declaration, or an end-to-end metric without a value, is a defect
// in the harness.
func declared(specs []metricSpec, values map[string]float64, mayBeAbsent bool) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok && !mayBeAbsent {
			return nil, fmt.Errorf("no value for declared metric %s", s.Name)
		}
		out[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

func printTable(w *os.File, specs []metricSpec, rec runRecord) {
	r := rec.Result
	fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %v (%d set-ups, %d timed operations, %d processor-time slices)\n",
		rec.Workload, r.Attempted, r.Failed, r.Correct, rec.Setups, rec.Samples, rec.Slices)
	for _, s := range specs {
		if m, ok := r.Metrics[s.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", s.Name, m.Value, m.Unit)
		}
	}
	if !rec.Trace {
		fmt.Fprintf(w, "  by the wall clock, not bounded: %.6g ms median, %.6g operations/s\n", rec.Wall.MsP50, rec.Wall.OpsPerS)
	}
}

// runOne executes one workload once and reports it. The returned error
// is a harness or watchdog failure; wrong outputs are counted in the
// result instead.
func runOne(spec *benchSpec, w workload, seed uint64, seconds float64, trace bool, outDir string) (runRecord, error) {
	rec := runRecord{Workload: w.name, Trace: trace, Seed: seed, Seconds: seconds}
	exe, err := os.Executable()
	if err != nil {
		return rec, err
	}
	tmp, err := os.MkdirTemp(outDir, w.name+"-")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(tmp)
	ctx := &runCtx{seed: seed, seconds: seconds, tmpDir: tmp, binDir: filepath.Dir(exe)}
	if trace {
		ctx.rec = newRecorder()
	}

	// Children are reaped on every way out: normal return, the run limit,
	// and a signal from the pipeline.
	abort := func(why string) {
		ctx.runCleanup()
		os.RemoveAll(tmp)
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, why)
		os.Exit(3)
	}
	guard := time.AfterFunc(runLimit, func() { abort("run limit exceeded") })
	defer guard.Stop()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		if s, ok := <-sigc; ok {
			abort("signal " + s.String())
		}
	}()
	defer func() {
		signal.Stop(sigc)
		close(sigc)
	}()

	o, runErr := w.run(ctx)
	ctx.runCleanup()
	if o == nil {
		return rec, runErr
	}
	rec.Setups, rec.Samples, rec.Slices = o.setups, len(o.ops)+len(o.tracedOps), len(o.cpuPerOp)
	rec.Wall = wallOf(o)
	rec.Result = result{
		Attempted: o.attempted,
		Failed:    o.attempted - o.succeeded,
		Correct:   runErr == nil && o.attempted > 0 && o.succeeded == o.attempted,
	}
	specs, values := spec.EndToEnd, endToEnd(o)
	if trace {
		specs, values = spec.PerLayer, o.layers
		values["bench.ops_timed"] = float64(rec.Samples)
		values["bench.op_wall_ms_p50"], values["bench.wall_ops_per_s"] = rec.Wall.MsP50, rec.Wall.OpsPerS
		values["bench.peak_rss_mb"] = peakRSSMB()
		if plain := median(o.ops); plain > 0 && len(o.tracedOps) > 0 {
			values["bench.trace_overhead_pct"] = (median(o.tracedOps)/plain - 1) * 100
		}
		if err := ctx.rec.write(filepath.Join(outDir, "trace_"+w.name+".json")); err != nil {
			return rec, err
		}
	}
	if rec.Result.Metrics, err = declared(specs, values, trace); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		// Say what completed, but print no result line: the run failed.
		printTable(os.Stderr, specs, rec)
		return rec, runErr
	}
	printTable(os.Stdout, specs, rec)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return rec, err
	}
	fmt.Println(string(line))
	return rec, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, in order)")
		seed    = flag.Uint64("seed", 1, "seed for inputs, key seeds and the serve_mixed schedule")
		seconds = flag.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics; with no -workload, run each workload both ways")
		outDir  = flag.String("out", ".bench_build/out", "directory for ledger.json, trace_<workload>.json and scratch files")
		compare = flag.Bool("compare", false, "compare two ledger files given as arguments against the declared bounds")
	)
	flag.Parse()
	// run.sh starts the harness at the repository root.
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare wants two ledger files"))
		}
		ok, err := compareLedgers(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	par.SetWorkers(pinnedWorkers)
	runtime.GOMAXPROCS(pinnedProcs)

	led := ledger{Machine: machineShape()}
	modes := []bool{*trace == 1}
	if *name == "" && *trace == 1 {
		modes = []bool{false, true}
	}
	var failed error
runs:
	for _, w := range workloads {
		if *name != "" && *name != w.name {
			continue
		}
		for _, tr := range modes {
			rec, err := runOne(spec, w, *seed, *seconds, tr, *outDir)
			led.Runs = append(led.Runs, rec)
			if err != nil {
				failed = fmt.Errorf("%s: %w", w.name, err)
				break runs
			}
		}
	}
	if len(led.Runs) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	raw, err := json.MarshalIndent(led, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*outDir, "ledger.json"), raw, 0o644)
	}
	if failed == nil {
		failed = err
	}
	if failed != nil {
		fatal(failed)
	}
}

// selfCPU is the processor time this process has used so far, user and
// system, all threads, the garbage collector's included.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// procCPU is the same for another live process, from /proc/<pid>/stat,
// which counts in ticks of 1/100 s.
func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name, in parentheses, may itself hold spaces.
	f := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields after the name", pid, len(f))
	}
	var ticks float64
	for _, field := range f[11:13] { // utime, stime
		n, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += float64(n)
	}
	return ticks / 100, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// peakRSSMB is the harness's own high-water resident set, from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		var kb float64
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}
