package report

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"atomique/internal/fidelity"
	"atomique/internal/metrics"
)

func sampleMetrics() metrics.Compiled {
	return metrics.Compiled{
		Arch:        "Atomique",
		Counts:      fidelity.Counts{NQubits: 4, N2Q: 3, N1Q: 1, Depth2Q: 3},
		CompileTime: 1500 * time.Microsecond,
		Fidelity: fidelity.Breakdown{
			OneQubit: 0.999, TwoQubit: 0.99, Transfer: 1,
			MoveHeating: 0.995, MoveCooling: 1, MoveLoss: 1, MoveDeco: 0.9999,
		},
	}
}

func TestEnvelopeDeterministicBytes(t *testing.T) {
	a, err := NewEnvelope("abc123", sampleMetrics()).EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEnvelope("abc123", sampleMetrics()).EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("identical envelopes serialise to different bytes")
	}
	if strings.Contains(string(a), ":-0") {
		t.Errorf("envelope contains negative zero: %s", a)
	}
	var round Envelope
	if err := json.Unmarshal(a, &round); err != nil {
		t.Fatal(err)
	}
	if round.CircuitHash != "abc123" || round.Metrics.N2Q != 3 {
		t.Errorf("round trip = %+v", round)
	}
	if round.CompileSeconds != 0.0015 {
		t.Errorf("compileSeconds = %v, want 0.0015", round.CompileSeconds)
	}
	// All seven fidelity factors are present and the entries sum to the
	// total error, so clients can attribute -log10(fidelityTotal) exactly.
	if len(round.ErrorBreakdown) != 7 {
		t.Errorf("errorBreakdown has %d entries, want 7: %v", len(round.ErrorBreakdown), round.ErrorBreakdown)
	}
	sum := 0.0
	for _, v := range round.ErrorBreakdown {
		sum += v
	}
	if want := -math.Log10(round.FidelityTotal); math.Abs(sum-want) > 1e-12 {
		t.Errorf("errorBreakdown sums to %v, want %v", sum, want)
	}
}

func TestEnvelopeOmitsInfiniteErrorEntries(t *testing.T) {
	m := sampleMetrics()
	m.Fidelity.MoveHeating = 0 // -log10 would be +Inf, unrepresentable in JSON
	js, err := NewEnvelope("h", m).EncodeJSON()
	if err != nil {
		t.Fatalf("EncodeJSON with zero factor: %v", err)
	}
	if strings.Contains(string(js), "Move Heating") {
		t.Error("infinite error entry not omitted")
	}
	var env Envelope
	if err := json.Unmarshal(js, &env); err != nil {
		t.Fatal(err)
	}
	if env.FidelityTotal != 0 {
		t.Errorf("fidelityTotal = %v, want 0", env.FidelityTotal)
	}
}
