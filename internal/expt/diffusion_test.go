package expt

import (
	"strings"
	"testing"

	"diffusearch/internal/diffuse"
)

func TestCompareDiffusionEngines(t *testing.T) {
	env := scaledEnv(t)
	rows, err := CompareDiffusionEngines(env, DiffusionConfig{M: 50, Alpha: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Matrix rows per engine plus the column-blocked signal rows that
	// expose per-column sweep counts.
	if len(rows) != 4 || rows[0].Engine != "async" || rows[1].Engine != "parallel" ||
		rows[2].Engine != "async(cols)" || rows[3].Engine != "parallel(cols)" {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	for _, r := range rows {
		if !r.Converged {
			t.Fatalf("%s did not converge", r.Engine)
		}
		if r.Updates == 0 || r.Messages == 0 || r.Sweeps == 0 {
			t.Fatalf("%s stats not populated: %+v", r.Engine, r)
		}
		// Fidelity against the synchronous fixed point is the acceptance
		// bar for every engine.
		if r.MaxDiffVsSync > 1e-4 {
			t.Fatalf("%s off fixed point by %g", r.Engine, r.MaxDiffVsSync)
		}
	}
	for _, r := range rows[2:] {
		if len(r.ColumnSweeps) == 0 {
			t.Fatalf("%s must report per-column sweeps", r.Engine)
		}
		if SummarizeColumnSweeps(r.ColumnSweeps) == "-" {
			t.Fatalf("%s column-sweep summary empty", r.Engine)
		}
	}
	if SummarizeColumnSweeps(nil) != "-" {
		t.Fatal("matrix rows must render '-' for col-sweeps")
	}
	// The frontier's bandwidth win over the sweeping reference only shows
	// once diffusion localizes (asserted at quarter scale in the top-level
	// engine tests); on this tiny environment just require the same order
	// of magnitude.
	if rows[1].Messages > 2*rows[0].Messages {
		t.Fatalf("parallel messages %d far above async %d", rows[1].Messages, rows[0].Messages)
	}
	table := FormatDiffusion(rows)
	if !strings.Contains(table.String(), "parallel") {
		t.Fatal("formatted table must name the engines")
	}
}

func TestCompareDiffusionEnginesCustomEngineList(t *testing.T) {
	env := scaledEnv(t)
	rows, err := CompareDiffusionEngines(env, DiffusionConfig{
		M: 30, Seed: 4, Engines: []diffuse.Engine{diffuse.EngineParallel},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Engine != "parallel" || rows[1].Engine != "parallel(cols)" {
		t.Fatalf("unexpected rows: %+v", rows)
	}
}

func TestBatchScaling(t *testing.T) {
	env := scaledEnv(t)
	rows, err := BatchScaling(env, BatchConfig{M: 50, Seed: 5, Sizes: []int{1, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].B != 1 || rows[1].B != 8 {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	for _, r := range rows {
		if r.NsPerQuery <= 0 || r.MessagesPerQuery <= 0 || r.Sweeps == 0 {
			t.Fatalf("B=%d stats not populated: %+v", r.B, r)
		}
		if len(r.ColumnSweeps) != r.B {
			t.Fatalf("B=%d: %d column sweep counts", r.B, len(r.ColumnSweeps))
		}
	}
	// The whole point of batching: one B-wide diffusion costs far fewer
	// messages per query than per-query diffusions.
	if rows[1].MessagesPerQuery >= rows[0].MessagesPerQuery {
		t.Fatalf("batch messages/query %f not below sequential %f",
			rows[1].MessagesPerQuery, rows[0].MessagesPerQuery)
	}
	table := FormatBatch(rows)
	if !strings.Contains(table.String(), "speedup/query") {
		t.Fatal("formatted table must include the speedup column")
	}
	if _, err := BatchScaling(env, BatchConfig{Sizes: []int{0}}); err == nil {
		t.Fatal("invalid batch width must error")
	}
}

func TestLabelCellClipsUniformly(t *testing.T) {
	if got := labelCell("parallel(cols)"); got != "parallel(cols)" {
		t.Fatalf("short label altered: %q", got)
	}
	long := strings.Repeat("x", labelWidth+5)
	got := labelCell(long)
	if len([]rune(got)) != labelWidth || !strings.HasSuffix(got, "…") {
		t.Fatalf("long label clipped to %q (%d runes)", got, len([]rune(got)))
	}
}
