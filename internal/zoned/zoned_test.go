package zoned

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/compiler/conformance"
	"atomique/internal/hardware"
	"atomique/internal/metrics"
)

// witness wraps a zoned compilation as the compiler-level execution witness
// (the same flattening the backend adapter performs), so the zoned unit
// tests check semantic equivalence with the one shared definition —
// conformance.VerifyResult — rather than a bespoke replay.
func witness(res *Result, n int) *compiler.Result {
	var gates []circuit.Gate
	for _, st := range res.Schedule.Stages {
		for _, g := range st.OneQ {
			gates = append(gates, circuit.Gate{Op: g.Op, Q0: g.SlotA, Q1: -1, Param: g.Param})
		}
		for _, g := range st.Gates {
			gates = append(gates, circuit.Gate{Op: g.Op, Q0: g.SlotA, Q1: g.SlotB, Param: g.Param})
		}
	}
	return &compiler.Result{Program: &compiler.Program{
		NSlots: n, Gates: gates, FinalSlot: res.FinalSlotOf,
	}}
}

func semanticsCheck(t *testing.T, geo hardware.ZoneGeometry, c *circuit.Circuit) {
	t.Helper()
	res, err := Compile(geo, hardware.NeutralAtom(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := conformance.VerifyResult(c, witness(res, c.N)); err != nil {
		t.Fatal(err)
	}
}

func TestZonedGHZSemantics(t *testing.T) {
	c := circuit.New(6)
	c.H(0)
	for i := 1; i < 6; i++ {
		c.CX(i-1, i)
	}
	semanticsCheck(t, hardware.DefaultZones(), c)
}

func TestZonedSemanticsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		geo := hardware.ZonesFor(n)
		geo.EntangleSites = 1 + rng.Intn(4)
		c := conformance.RandomCircuit(rng, n, 10+rng.Intn(50))
		res, err := Compile(geo, hardware.NeutralAtom(), c, Options{})
		if err != nil {
			return false
		}
		return conformance.VerifyResult(c, witness(res, c.N)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestZonedParallelismBoundedBySites: the gate-site count caps each round's
// two-qubit batch, and shrinking it deepens the schedule.
func TestZonedParallelismBoundedBySites(t *testing.T) {
	// Eight disjoint pairs, all executable in parallel.
	c := circuit.New(16)
	for i := 0; i < 16; i += 2 {
		c.CZ(i, i+1)
	}
	wide := hardware.ZonesFor(16)
	wide.EntangleSites = 8
	narrow := wide
	narrow.EntangleSites = 2

	wr, err := Compile(wide, hardware.NeutralAtom(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nr, err := Compile(narrow, hardware.NeutralAtom(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wr.Metrics.Depth2Q != 1 {
		t.Errorf("8 sites: depth = %d, want 1", wr.Metrics.Depth2Q)
	}
	if nr.Metrics.Depth2Q != 4 {
		t.Errorf("2 sites: depth = %d, want 4", nr.Metrics.Depth2Q)
	}
	for _, st := range nr.Schedule.Stages {
		if len(st.Gates) > 2 {
			t.Errorf("round executes %d gates with 2 gate sites", len(st.Gates))
		}
	}
}

// TestZonedAccounting: two tweezer transfers per atom per shuttle round
// (four per gate) plus the readout transfer pair, and the 2Q multiset is
// preserved (no SWAPs).
func TestZonedAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := conformance.RandomCircuit(rng, 8, 60)
	res, err := Compile(hardware.ZonesFor(8), hardware.NeutralAtom(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.N2Q != c.Num2Q() || m.N1Q != c.Num1Q() {
		t.Errorf("gate counts (%d 2Q, %d 1Q) diverge from source (%d, %d)",
			m.N2Q, m.N1Q, c.Num2Q(), c.Num1Q())
	}
	if m.SwapCount != 0 || m.AddedCNOTs != 0 {
		t.Errorf("zoned scheduling inserted SWAPs: %d (+%d CNOT)", m.SwapCount, m.AddedCNOTs)
	}
	if want := 4*c.Num2Q() + 2*c.N; res.Trace.Transfers != want {
		t.Errorf("transfers = %d, want 4 per 2Q gate + 2 per qubit = %d",
			res.Trace.Transfers, want)
	}
	if m.MoveStages != m.Depth2Q+1 {
		t.Errorf("move stages = %d, want rounds + readout = %d", m.MoveStages, m.Depth2Q+1)
	}
	if m.TotalMoveDist <= 0 || m.ExecutionTime <= 0 {
		t.Errorf("movement accounting empty: %+v", m)
	}
	if got := m.FidelityTotal(); got <= 0 || got >= 1 {
		t.Errorf("fidelity %v outside (0,1)", got)
	}
}

// TestZonedHotQubitsPlacedNearZone: the busiest qubit gets storage row 0.
func TestZonedHotQubitsPlacedNearZone(t *testing.T) {
	c := circuit.New(12)
	for i := 1; i < 12; i++ {
		c.CZ(7, i%7) // qubit 7 touches every gate
	}
	res, err := Compile(hardware.ZonesFor(12), hardware.NeutralAtom(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SiteOf[7].Row != 0 {
		t.Errorf("hottest qubit placed at row %d, want 0 (sites: %v)", res.SiteOf[7].Row, res.SiteOf)
	}
}

func TestZonedCoolingTriggers(t *testing.T) {
	// A long 2Q chain on two qubits accrues shuttle heating until cooling.
	c := circuit.New(2)
	for i := 0; i < 200; i++ {
		c.CZ(0, 1)
	}
	res, err := Compile(hardware.DefaultZones(), hardware.NeutralAtom(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CoolingEvents == 0 {
		t.Error("200 shuttle rounds triggered no cooling")
	}
	if res.Metrics.Fidelity.MoveCooling >= 1 {
		t.Error("cooling events did not reach the fidelity model")
	}
}

func TestZonedCapacityError(t *testing.T) {
	geo := hardware.DefaultZones()
	geo.StorageRows, geo.StorageCols = 2, 2
	if _, err := Compile(geo, hardware.NeutralAtom(), circuit.New(5), Options{}); err == nil {
		t.Error("5 qubits accepted on a 4-site storage zone")
	}
}

func TestZonedDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := conformance.RandomCircuit(rng, 10, 80)
	canonical := func(m metrics.Compiled) metrics.Compiled {
		m.CompileTime = 0
		for i := range m.Passes {
			m.Passes[i].Seconds = 0
		}
		return m
	}
	a, err := Compile(hardware.ZonesFor(10), hardware.NeutralAtom(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(hardware.ZonesFor(10), hardware.NeutralAtom(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonical(a.Metrics), canonical(b.Metrics)) {
		t.Errorf("same-input metrics diverge:\n%+v\nvs\n%+v", a.Metrics, b.Metrics)
	}
}

func TestZonedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompileContext(ctx, hardware.DefaultZones(), hardware.NeutralAtom(),
		circuit.New(4), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestZonedPassNames(t *testing.T) {
	want := []string{"map-storage", "schedule-rounds", "fidelity"}
	if got := PassNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("pass names = %v, want %v", got, want)
	}
}
