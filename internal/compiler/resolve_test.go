package compiler

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"atomique/internal/circuit"
	"atomique/internal/hardware"
	"atomique/internal/noise"
)

// capsBackend is a backend stub that declares caps and compiles nothing.
type capsBackend struct {
	name string
	caps Capabilities
}

func (b capsBackend) Name() string               { return b.name }
func (b capsBackend) Capabilities() Capabilities { return b.caps }
func (b capsBackend) Compile(context.Context, Target, *circuit.Circuit, Options) (*Result, error) {
	return nil, errors.New("stub")
}

// ghz is an n-qubit GHZ chain: Clifford, so auto shots dispatch to stab.
func ghz(n int) *circuit.Circuit {
	c := circuit.New(n)
	c.H(0)
	for q := 0; q+1 < n; q++ {
		c.CX(q, q+1)
	}
	return c
}

func TestResolve(t *testing.T) {
	fpqa := capsBackend{"fpqa", Capabilities{FPQA: true, Routes: true, MaxQubits: 1024}}
	coupling := capsBackend{"coupling", Capabilities{Coupling: true, MaxQubits: 1024}}
	zoned := capsBackend{"zoned", Capabilities{Zoned: true, MaxQubits: 1024}}
	narrow := capsBackend{"narrow", Capabilities{FPQA: true, Routes: true, MaxQubits: 2}}
	base := hardware.SquareConfig(8, 3)
	small := &ZonedSpec{Geometry: hardware.ZonesFor(4)}
	small.Geometry.StorageRows, small.Geometry.StorageCols = 1, 2
	for _, tc := range []struct {
		name    string
		be      Backend
		o       Order
		base    *hardware.Config
		want    Target // compared when wantErr is empty
		wantErr string // substring of the error
	}{
		{"nil base gives the auto target", fpqa, Order{}, nil, Target{}, ""},
		{"a base without override is the target", fpqa, Order{}, &base, FPQA(base), ""},
		{"partial override of a nil base starts from the paper's machine", fpqa, Order{SLM: 4}, nil,
			FPQA(hardware.Config{SLM: hardware.ArraySpec{Rows: 4, Cols: 4},
				AODs: []hardware.ArraySpec{{Rows: 10, Cols: 10}, {Rows: 10, Cols: 10}}, Params: hardware.NeutralAtom()}), ""},
		{"partial override keeps the base's other dimensions", fpqa, Order{AODSize: 5}, &base,
			FPQA(hardware.BuildConfig(8, 3, 5, hardware.NeutralAtom())), ""},
		{"override past the site capacity", fpqa, Order{SLM: 1, AODs: 1, AODSize: 1}, nil, Target{}, "machine has 2 sites"},
		{"negative override", fpqa, Order{AODs: -1}, nil, Target{}, "must be non-negative"},
		{"aod count past the cap", fpqa, Order{AODs: 100000000}, nil, Target{}, "100000000 AOD arrays exceed the 16-array limit"},
		{"coupling family", coupling, Order{Family: FamilyTriangular}, &base, Coupling(FamilyTriangular, 0), ""},
		{"coupling default ignores the base", coupling, Order{}, &base, Target{}, ""},
		{"unknown family", coupling, Order{Family: "hexagonal"}, nil, Target{}, "unknown coupling family"},
		{"zones", zoned, Order{Zones: &ZonedSpec{Geometry: hardware.DefaultZones()}}, nil, Zoned(hardware.DefaultZones()), ""},
		{"zones smaller than the circuit", zoned, Order{Zones: small}, nil, Target{}, "storage zone has 2 sites"},
		// Device fields for another target kind are rejected, not ignored.
		{"family on fpqa", fpqa, Order{Family: FamilyTriangular}, nil, Target{}, "family applies only to fixed-topology backends"},
		{"zones on fpqa", fpqa, Order{Zones: small}, nil, Target{}, "zones applies only to zoned backends"},
		{"machine on coupling", coupling, Order{SLM: 8}, nil, Target{}, "slm/aods/aodSize apply only to FPQA backends"},
		{"zones on coupling", coupling, Order{Zones: small}, nil, Target{}, "zones applies only to zoned backends"},
		{"machine on zoned", zoned, Order{AODs: 3}, nil, Target{}, "use zones instead of slm/aods/aodSize/family"},
		{"family on zoned", zoned, Order{Family: FamilyTriangular}, nil, Target{}, "use zones instead of slm/aods/aodSize/family"},
		{"no target kind", capsBackend{"none", Capabilities{MaxQubits: 1024}}, Order{}, nil, Target{}, "declares no supported target kind"},
		// The width check comes first, so an over-cap override is never built.
		{"width before the target", narrow, Order{AODs: 100000000}, nil, Target{}, "4-qubit circuits (at most 2)"},
		// Option rules.
		{"invalid options", fpqa, Order{Options: Options{BudgetSeconds: -1}}, nil, Target{}, "budget must be non-negative"},
		{"unknown engine", fpqa, Order{Options: Options{NoisyShots: 10, Engine: "statevector"}}, nil, Target{}, `backend "fpqa" compiles this 4-qubit circuit to a 4-slot witness`},
		{"bad relax", fpqa, Order{Relax: "1,9"}, nil, Target{}, `unknown relax constraint "9"`},
		{"undeclared exact mode", fpqa, Order{Options: Options{Exact: true}}, nil, Target{}, "does not support exact mode"},
	} {
		tgt, _, err := Resolve(tc.be, tc.o, ghz(4), tc.base)
		switch {
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr == "" && !reflect.DeepEqual(tgt, tc.want):
			t.Errorf("%s: target = %+v, want %+v", tc.name, tgt, tc.want)
		}
	}

	// Options come back validated, with the engine that will run and the
	// relaxations applied.
	_, opts, err := Resolve(fpqa, Order{Options: Options{Seed: 3, NoisyShots: 10}, Relax: "1,3"}, ghz(4), nil)
	want := Options{Seed: 3, NoisyShots: 10, Engine: noise.EngineStab, RelaxAddressing: true, RelaxOverlap: true}
	if err != nil || opts != want {
		t.Errorf("options = %+v, %v; want %+v", opts, err, want)
	}

	// The cap error comes before any allocation sized by the AOD count: a
	// list of 10^8 arrays would take 1.6 GB.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		if _, _, err := Resolve(fpqa, Order{AODs: 100000000}, ghz(4), nil); err == nil {
			t.Fatal("aods 100000000 accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Errorf("10 over-cap resolves allocated %d bytes", d)
	}
}
