// Command bench is the repo benchmark: four workloads over the serving
// stack (live peerd overlays on loopback, and the paper-scale in-process
// scheduler and offline diffusion), each reporting the same end-to-end
// metrics, and with --trace 1 the per-layer metrics that attribute them.
// See README.md for what every number means; BENCHMARK.json is the
// contract a driver runs it under:
//
//	bash bench/run.sh --workload serve_cold --seed 42 --seconds 16 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Without --workload every
// workload runs in turn; --selfcheck runs the suite twice and compares.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"diffusearch/bench/kit"
)

// Both directories are relative to the working directory, which bench/run.sh
// makes the root of the checkout. buildDir holds what run.sh built; outDir
// receives what a run leaves behind (peer logs, topology files, result and
// span files).
const (
	buildDir = ".bench_build"
	outDir   = "bench/out"
)

type runCtx struct {
	ctx     context.Context
	name    string
	seed    uint64
	seconds float64
	quick   bool          // drift-test scale: small environment, one set-up
	rec     *kit.Recorder // nil when untraced
}

func (c *runCtx) traced() bool { return c.rec != nil }

func (c *runCtx) openDur() time.Duration {
	return time.Duration(c.seconds * openShare * float64(time.Second))
}

func (c *runCtx) closedDur() time.Duration {
	return time.Duration(c.seconds*float64(time.Second)) - c.openDur()
}

func (c *runCtx) reps(full int) int {
	if c.quick {
		return 1
	}
	return full
}

// measurement is what one run of one workload produced.
type measurement struct {
	e2e       map[string]float64
	layer     map[string]float64 // traced runs only
	samples   map[string]int     // sample count behind a metric, where it has one
	attempted int
	failed    int
	checked   atomic.Int64 // score vectors compared with the synchronous reference

	mu       sync.Mutex
	problems []string // output checks that did not hold: the run is not correct
	notes    []string // why operations failed; a failed operation counts against maxFailFrac
}

func newMeasurement() *measurement {
	return &measurement{
		e2e: make(map[string]float64), layer: make(map[string]float64), samples: make(map[string]int),
	}
}

// problemf records a failed output check; request goroutines call it
// concurrently. Only the first few are kept.
func (m *measurement) problemf(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.problems) < 8 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// notef records why an operation failed.
func (m *measurement) notef(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.notes) < 8 {
		m.notes = append(m.notes, fmt.Sprintf(format, args...))
	}
}

func (m *measurement) correct() bool {
	return len(m.problems) == 0 && m.attempted > 0 &&
		float64(m.failed) <= maxFailFrac*float64(m.attempted)
}

// metricValue is the wire shape of one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is result plus what a reader needs to place it; it ends with
// the claim, which a benchmark definition never makes.
type resultFile struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Procs    int            `json:"gomaxprocs"`
	OK       int            `json:"ok"`
	Samples  map[string]int `json:"samples"`
	Problems []string       `json:"problems,omitempty"`
	result
	Claim *string `json:"claim"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all, in turn)")
		seed      = flag.Uint64("seed", 42, "drives every generated input")
		seconds   = flag.Float64("seconds", 16, "length of the timed phases of one run")
		trace     = flag.Int("trace", 0, "1 installs the span wrappers and prints the per-layer metrics instead")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice, workload order alternated, and compare against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bash bench/run.sh [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--selfcheck]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(ctx, *seed, *seconds)
	case *workload == "":
		for _, w := range workloads {
			if _, err = runAndReport(ctx, w, *seed, *seconds, *trace == 1); err != nil {
				break
			}
		}
	default:
		i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == *workload })
		if i < 0 {
			err = fmt.Errorf("unknown workload %q", *workload)
		} else {
			_, err = runAndReport(ctx, workloads[i], *seed, *seconds, *trace == 1)
		}
	}
	if err != nil {
		stop()
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runAndReport runs one workload, prints its metrics and the result line,
// and writes the result file (and the span file of a traced run). A run
// whose outputs were wrong is reported in full and then returned as an
// error, so the command exits non-zero.
func runAndReport(ctx context.Context, w workloadDef, seed uint64, seconds float64, traced bool) (*measurement, error) {
	c := &runCtx{ctx: ctx, name: w.name, seed: seed, seconds: seconds}
	if traced {
		c.rec = kit.NewRecorder()
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	m, err := w.run(c)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%s: interrupted", w.name)
	}
	defs, values := endToEnd, m.e2e
	if traced {
		defs, values = perLayer, m.layer
		values["trace.latency_p50_ms"] = m.e2e["latency_p50_ms"]
		values["trace.overhead_frac"] = traceOverhead(w.name, seed, m.e2e["latency_p50_ms"])
	}
	res := result{
		Correct: m.correct(), Attempted: m.attempted, Failed: m.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	fmt.Printf("workload %s seed %d seconds %g trace %t: attempted %d ok %d failed %d\n",
		w.name, seed, seconds, traced, m.attempted, m.attempted-m.failed, m.failed)
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		line := fmt.Sprintf("  %-32s %14.6g %s", d.name, values[d.name], d.unit)
		if n, ok := m.samples[d.name]; ok {
			line += fmt.Sprintf(" (n=%d)", n)
		}
		fmt.Println(line)
	}
	for _, n := range m.notes {
		fmt.Println("  failed:", n)
	}
	for _, p := range m.problems {
		fmt.Println("  PROBLEM:", p)
	}

	file := resultFile{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced,
		Procs: runtime.GOMAXPROCS(0), OK: m.attempted - m.failed,
		Samples: m.samples, Problems: m.problems, result: res,
	}
	if err := writeJSON(resultPath(w.name, traced), file); err != nil {
		return nil, err
	}
	if traced {
		f, err := os.Create(filepath.Join(outDir, "trace-"+w.name+".jsonl"))
		if err != nil {
			return nil, err
		}
		if err := kit.WriteJSONL(f, c.rec.Spans()); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return m, fmt.Errorf("%s: outputs not correct (%d of %d operations failed, %d checks failed)",
			w.name, m.failed, m.attempted, len(m.problems))
	}
	return m, nil
}

func resultPath(workload string, traced bool) string {
	name := "result-" + workload + ".json"
	if traced {
		name = "result-" + workload + "-traced.json"
	}
	return filepath.Join(outDir, name)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// traceOverhead compares a traced run's median latency with the untraced
// run of the same workload and seed left in outDir by an earlier
// invocation: (traced − untraced) ÷ untraced, or 0 when there is none.
func traceOverhead(workload string, seed uint64, tracedP50 float64) float64 {
	data, err := os.ReadFile(resultPath(workload, false))
	if err != nil {
		return 0
	}
	var prev resultFile
	if json.Unmarshal(data, &prev) != nil || prev.Seed != seed {
		return 0
	}
	base := prev.Metrics["latency_p50_ms"].Value
	if base <= 0 {
		return 0
	}
	return (tracedP50 - base) / base
}
