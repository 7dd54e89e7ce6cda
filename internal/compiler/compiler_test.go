package compiler

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"atomique/internal/circuit"
	"atomique/internal/hardware"
)

func TestTargetValidate(t *testing.T) {
	cases := []struct {
		name    string
		tgt     Target
		wantErr bool
	}{
		{"auto", Target{}, false},
		{"auto with payload", Target{FPQA: &hardware.Config{}}, true},
		{"fpqa default", FPQA(hardware.DefaultConfig()), false},
		{"fpqa invalid machine", FPQA(hardware.Config{SLM: hardware.ArraySpec{Rows: 3, Cols: 3}}), true},
		{"fpqa missing payload", Target{Kind: KindFPQA}, true},
		{"fpqa with coupling payload", Target{Kind: KindFPQA, FPQA: func() *hardware.Config { c := hardware.DefaultConfig(); return &c }(), Coupling: &CouplingSpec{Family: FamilyRectangular}}, true},
		{"coupling rectangular", Coupling(FamilyRectangular, 16), false},
		{"coupling zero qubits", Coupling(FamilyTriangular, 0), false},
		{"coupling negative qubits", Coupling(FamilyTriangular, -1), true},
		{"coupling unknown family", Coupling("hexagonal", 16), true},
		{"coupling missing spec", Target{Kind: KindCoupling}, true},
		{"zoned default", Zoned(hardware.DefaultZones()), false},
		{"zoned grown", Zoned(hardware.ZonesFor(500)), false},
		{"zoned missing payload", Target{Kind: KindZoned}, true},
		{"zoned invalid geometry", Zoned(hardware.ZoneGeometry{StorageRows: 4}), true},
		{"zoned with fpqa payload", Target{Kind: KindZoned,
			Zoned: &ZonedSpec{Geometry: hardware.DefaultZones()},
			FPQA:  func() *hardware.Config { c := hardware.DefaultConfig(); return &c }()}, true},
		{"auto with zoned payload", Target{Zoned: &ZonedSpec{Geometry: hardware.DefaultZones()}}, true},
		{"unknown kind", Target{Kind: "hybrid"}, true},
	}
	for _, tc := range cases {
		if err := tc.tgt.Validate(); (err != nil) != tc.wantErr {
			t.Errorf("%s: Validate() = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
	}
}

func TestTargetJSONRoundTrip(t *testing.T) {
	for _, tgt := range []Target{
		{},
		FPQA(hardware.DefaultConfig()),
		Coupling(FamilyLongRange, 40),
		CouplingWithParams(FamilyRectangular, 20, hardware.NeutralAtom()),
		Zoned(hardware.DefaultZones()),
		ZonedWithParams(hardware.ZonesFor(150), hardware.NeutralAtom()),
	} {
		js, err := json.Marshal(tgt)
		if err != nil {
			t.Fatalf("marshal %s: %v", tgt, err)
		}
		var back Target
		if err := json.Unmarshal(js, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", tgt, err)
		}
		if !reflect.DeepEqual(tgt, back) {
			t.Errorf("round trip changed target: %+v -> %+v", tgt, back)
		}
		if err := back.Validate(); err != nil {
			t.Errorf("round-tripped %s invalid: %v", tgt, err)
		}
	}
}

func TestTargetMaterialisation(t *testing.T) {
	cfg, err := Target{}.Hardware(40)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Capacity() < 40 {
		t.Errorf("auto hardware capacity %d below circuit size", cfg.Capacity())
	}
	// Auto grows past the default 300 sites.
	big, err := Target{}.Hardware(500)
	if err != nil {
		t.Fatal(err)
	}
	if big.Capacity() < 500 {
		t.Errorf("grown capacity %d below 500", big.Capacity())
	}
	if _, err := Coupling(FamilyRectangular, 9).Hardware(9); err == nil {
		t.Error("coupling target materialised as FPQA hardware")
	}

	a, err := Coupling(FamilyTriangular, 9).Arch(4, FamilyRectangular)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "FAA-Triangular" || a.Coupling.N < 9 {
		t.Errorf("triangular arch = %s with %d sites", a.Name, a.Coupling.N)
	}
	// Auto target resolves to the fallback family sized for the circuit.
	a, err = Target{}.Arch(12, FamilyRectangular)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "FAA-Rectangular" || a.Coupling.N < 12 {
		t.Errorf("auto arch = %s with %d sites", a.Name, a.Coupling.N)
	}
	// Parameter overrides survive materialisation.
	p := hardware.NeutralAtom()
	p.CoherenceT1 = 99
	a, err = CouplingWithParams(FamilyLongRange, 16, p).Arch(16, FamilyRectangular)
	if err != nil {
		t.Fatal(err)
	}
	if a.Params.CoherenceT1 != 99 {
		t.Errorf("params override lost: T1 = %v", a.Params.CoherenceT1)
	}
	if _, err := FPQA(hardware.DefaultConfig()).Arch(10, FamilyRectangular); err == nil {
		t.Error("fpqa target materialised as fixed-topology arch")
	}

	// Zoned materialisation: auto sizes for the circuit, explicit geometry
	// and parameter overrides thread through, and cross-kind requests fail.
	geo, p, err := Target{}.ZoneSetup(150)
	if err != nil {
		t.Fatal(err)
	}
	if geo.StorageCapacity() < 150 {
		t.Errorf("auto zones capacity %d below circuit size", geo.StorageCapacity())
	}
	if p != hardware.NeutralAtom() {
		t.Errorf("auto zones params = %+v, want neutral-atom defaults", p)
	}
	slow := hardware.NeutralAtom()
	slow.CoherenceT1 = 0.5
	geo2 := hardware.DefaultZones()
	geo2.EntangleSites = 3
	g, p2, err := ZonedWithParams(geo2, slow).ZoneSetup(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.EntangleSites != 3 || p2.CoherenceT1 != 0.5 {
		t.Errorf("zoned overrides lost: %+v, %+v", g, p2)
	}
	if _, _, err := FPQA(hardware.DefaultConfig()).ZoneSetup(4); err == nil {
		t.Error("fpqa target materialised as zones")
	}
	if _, err := Zoned(hardware.DefaultZones()).Hardware(4); err == nil {
		t.Error("zoned target materialised as FPQA hardware")
	}
	if _, err := Zoned(hardware.DefaultZones()).Arch(4, FamilyRectangular); err == nil {
		t.Error("zoned target materialised as fixed-topology arch")
	}
}

func TestCheckSupport(t *testing.T) {
	full := Capabilities{FPQA: true, Coupling: true, Zoned: true, Exact: true, Budget: true}
	for _, tc := range []struct {
		name    string
		caps    Capabilities
		tgt     Target
		opts    Options
		wantErr bool
	}{
		{"all declared", full, Zoned(hardware.DefaultZones()), Options{Exact: true, BudgetSeconds: 1}, false},
		{"undeclared exact", Capabilities{FPQA: true}, Target{}, Options{Exact: true}, true},
		{"undeclared budget", Capabilities{FPQA: true}, Target{}, Options{BudgetSeconds: 2}, true},
		{"undeclared zoned kind", Capabilities{FPQA: true}, Zoned(hardware.DefaultZones()), Options{}, true},
		{"undeclared fpqa kind", Capabilities{Zoned: true}, FPQA(hardware.DefaultConfig()), Options{}, true},
		{"undeclared coupling kind", Capabilities{FPQA: true}, Coupling(FamilyRectangular, 4), Options{}, true},
		{"auto always allowed", Capabilities{}, Target{}, Options{}, false},
	} {
		err := CheckSupport("probe", tc.caps, tc.tgt, tc.opts)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: CheckSupport = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
		if err != nil {
			var ue *UnsupportedError
			if !errors.As(err, &ue) {
				t.Errorf("%s: error %T not *UnsupportedError", tc.name, err)
			} else if ue.Backend != "probe" {
				t.Errorf("%s: error names backend %q", tc.name, ue.Backend)
			}
		}
	}
}

func TestOptionsApplyRelax(t *testing.T) {
	var o Options
	if err := o.ApplyRelax("1, 3"); err != nil {
		t.Fatal(err)
	}
	if !o.RelaxAddressing || o.RelaxOrder || !o.RelaxOverlap {
		t.Errorf("relax flags = %+v", o)
	}
	if err := new(Options).ApplyRelax(""); err != nil {
		t.Errorf("empty spec rejected: %v", err)
	}
	var trail Options
	if err := trail.ApplyRelax("2,,"); err != nil {
		t.Errorf("trailing empty entries rejected: %v", err)
	}
	if !trail.RelaxOrder || trail.RelaxAddressing || trail.RelaxOverlap {
		t.Errorf("relax flags after \"2,,\" = %+v", trail)
	}
	if err := new(Options).ApplyRelax("4"); err == nil {
		t.Error("unknown constraint accepted")
	}
	if err := new(Options).ApplyRelax("2,2"); err == nil {
		t.Error("duplicate constraint accepted")
	}
}

func TestOptionsValidate(t *testing.T) {
	for name, o := range map[string]Options{
		"zero":          {},
		"budget":        {BudgetSeconds: 1.5},
		"noisy":         {NoisyShots: 100, NoiseSeed: 3, NoiseScale: 2, Noise1Q: 0.01, Noise2Q: 1, Engine: "stab"},
		"max shots":     {NoisyShots: MaxNoisyShots},
		"sampled shard": {NoisyShots: 100, SampleBits: true, ShotOffset: 400},
		"compile only":  {Seed: -1, Gamma: 0.9, Exact: true},
	} {
		if err := o.Validate(); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
	for name, o := range map[string]Options{
		"negative budget":    {BudgetSeconds: -1},
		"negative shots":     {NoisyShots: -1},
		"too many shots":     {NoisyShots: MaxNoisyShots + 1},
		"negative scale":     {NoisyShots: 10, NoiseScale: -1},
		"negative 1Q prob":   {NoisyShots: 10, Noise1Q: -0.1},
		"2Q prob over 1":     {NoisyShots: 10, Noise2Q: 1.5},
		"orphan noise seed":  {NoiseSeed: 3},
		"orphan engine":      {Engine: "dense"},
		"offset unsampled":   {NoisyShots: 10, ShotOffset: 5},
		"sample no shots":    {SampleBits: true},
		"negative offset":    {NoisyShots: 10, SampleBits: true, ShotOffset: -1},
		"range past the cap": {NoisyShots: 10, SampleBits: true, ShotOffset: 1 << 40},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// fakeBackend exercises the registry without touching real compilers.
type fakeBackend struct{ name string }

func (f fakeBackend) Name() string               { return f.name }
func (f fakeBackend) Capabilities() Capabilities { return Capabilities{Description: "fake"} }
func (f fakeBackend) Compile(context.Context, Target, *circuit.Circuit, Options) (*Result, error) {
	return &Result{Backend: f.name}, nil
}

func TestRegistry(t *testing.T) {
	Register(fakeBackend{"zz-test-b"})
	Register(fakeBackend{"zz-test-a"})
	defer func() {
		regMu.Lock()
		delete(registry, "zz-test-a")
		delete(registry, "zz-test-b")
		regMu.Unlock()
	}()

	if _, ok := Lookup("zz-test-a"); !ok {
		t.Fatal("registered backend not found")
	}
	if _, ok := Lookup("no-such-backend"); ok {
		t.Fatal("unknown backend found")
	}
	names := Names()
	ia, ib := -1, -1
	for i, n := range names {
		switch n {
		case "zz-test-a":
			ia = i
		case "zz-test-b":
			ib = i
		}
	}
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("Names() not sorted or incomplete: %v", names)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate Register did not panic")
			}
		}()
		Register(fakeBackend{"zz-test-a"})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty-name Register did not panic")
			}
		}()
		Register(fakeBackend{""})
	}()
}
