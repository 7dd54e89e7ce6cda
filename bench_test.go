// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation. Each benchmark regenerates the corresponding artifact
// (the same code cmd/experiments runs) and reports headline metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Where the paper reports a value, a table
// note quotes it.
package main

import (
	"io"
	"testing"

	"atomique/internal/exp"
	"atomique/internal/report"
)

// runExperiment drives one experiment per benchmark iteration, rendering its
// tables to io.Discard so table formatting is part of the measured work.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var tables []*report.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables = e.Run()
		for _, t := range tables {
			t.Render(io.Discard)
		}
	}
	b.StopTimer()
	rows := 0
	for _, t := range tables {
		rows += len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkTab1(b *testing.B)  { runExperiment(b, "tab1") }
func BenchmarkTab2(b *testing.B)  { runExperiment(b, "tab2") }
func BenchmarkTab3(b *testing.B)  { runExperiment(b, "tab3") }
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { runExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B) { runExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B) { runExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B) { runExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B) { runExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B) { runExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B) { runExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B) { runExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B) { runExperiment(b, "fig21") }
func BenchmarkFig22(b *testing.B) { runExperiment(b, "fig22") }
func BenchmarkFig23(b *testing.B) { runExperiment(b, "fig23") }
func BenchmarkFig24(b *testing.B) { runExperiment(b, "fig24") }
func BenchmarkFig25(b *testing.B) { runExperiment(b, "fig25") }

// BenchmarkAblation covers the design-choice sweeps DESIGN.md calls out
// (gamma decay, SABRE lookahead, reverse passes) beyond the paper's Fig 21.
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablation") }

// BenchmarkScaling measures compile time versus circuit size (the
// scalability claim behind Fig 14 / Table II).
func BenchmarkScaling(b *testing.B) { runExperiment(b, "scaling") }
