package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// benchmarkFile is BENCHMARK.json as far as the benchmark itself reads it.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	return b, json.Unmarshal(data, &b)
}

// runSelfcheck runs every workload twice on the same code, the second time
// in reverse order, and prints per workload × end-to-end metric both
// values, their relative difference, the bound and whether the difference
// is inside it. A traced pass then gives the tracing overhead. It fails
// when any pair disagrees by more than its bound.
func runSelfcheck(ctx context.Context, seed uint64, seconds float64) error {
	spec, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	first := make(map[string]*measurement)
	second := make(map[string]*measurement)
	for _, w := range workloads {
		if first[w.name], err = runAndReport(ctx, w, seed, seconds, false); err != nil {
			return err
		}
	}
	reversed := slices.Clone(workloads)
	slices.Reverse(reversed)
	for _, w := range reversed {
		if second[w.name], err = runAndReport(ctx, w, seed, seconds, false); err != nil {
			return err
		}
	}
	overhead := make(map[string]float64)
	for _, w := range workloads {
		m, err := runAndReport(ctx, w, seed, seconds, true)
		if err != nil {
			return err
		}
		overhead[w.name] = m.layer["trace.overhead_frac"]
	}

	fmt.Printf("\nselfcheck seed %d seconds %g\n%-14s %-16s %12s %12s %8s %6s  %s\n",
		seed, seconds, "workload", "metric", "first", "second", "diff", "bound", "")
	failed := 0
	for _, w := range workloads {
		for _, e := range spec.EndToEnd {
			a, b := first[w.name].e2e[e.Name], second[w.name].e2e[e.Name]
			diff := (b - a) / a
			verdict := "ok"
			if math.IsNaN(diff) || math.Abs(diff) > e.Bound {
				verdict = "OUTSIDE"
				failed++
			}
			fmt.Printf("%-14s %-16s %12.5g %12.5g %+7.1f%% %5.0f%%  %s\n", w.name, e.Name, a, b, 100*diff, 100*e.Bound, verdict)
		}
		fmt.Printf("%-14s %-16s %+7.1f%%\n", w.name, "trace.overhead", 100*overhead[w.name])
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d metric × workload pairs differ by more than their bound", failed)
	}
	return nil
}
