package qasm

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"atomique/internal/bench"
	"atomique/internal/circuit"
)

// FuzzParse asserts the parser's error contract on arbitrary input: Parse
// either succeeds or returns a *ParseError with a non-negative line number —
// it never panics and never returns a bare error for malformed source (only
// genuine reader I/O failures, which a string reader cannot produce, stay
// plain). Successful parses must additionally survive the Write round trip.
//
// Run it as a regression corpus with `go test ./internal/qasm`, or as a
// fuzzer with `go test -fuzz=FuzzParse ./internal/qasm`.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.qasm"))
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	// The generated half of the regression corpus (internal/regress), so the
	// fuzzer starts from every circuit family the golden snapshots compile:
	// big registers, rzz-heavy QAOA layers, and dense QV permutations.
	for _, c := range []*circuit.Circuit{
		bench.QAOARegular(40, 5, 15),
		bench.QV(32, 32, 3),
		bench.BV(50, 22, 4),
	} {
		f.Add(String(c))
	}
	for _, seed := range []string{
		"",
		"qreg q[0];",
		"qreg q[-1];",
		"qreg q[2];\ncx q[0],q[1];",
		"qreg q[2];qreg p[3];",
		"cx q[0],q[1];",
		"qreg q[3]; rz(pi/2) q[0]; rzz(-3*pi/4) q[1],q[2];",
		"qreg q[1]; rx(1/0) q[0];",
		"qreg q[1]; rx() q[0];",
		"qreg q[1]; h q[9999999999999999999999];",
		"qreg q[2]; swap q[1],q[1];",
		"qreg q[2]; mystery q[0];",
		"qreg q[2]; cx q[0],q[1]", // no trailing semicolon
		"qreg q[2]; cx q[0] , q[1] ; // comment",
		"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nmeasure q[0] -> c[0];",
		"qreg q[2]; u3(0.1,0.2,0.3) q[0];",
		"qreg q[2]; h q[",
		"qreg q[2]; h q]0[;",
		"qreg q[18446744073709551616];",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseString(src)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("non-ParseError from malformed input: %T %v", err, err)
			}
			if pe.Line < 0 {
				t.Fatalf("negative error line %d", pe.Line)
			}
			return
		}
		if c == nil {
			t.Fatal("nil circuit without error")
		}
		if c.N < 0 {
			t.Fatalf("negative register width %d", c.N)
		}
		// Round trip: everything we parsed must serialise and re-parse to
		// the same gate list.
		out := String(c)
		c2, err := ParseString(out)
		if err != nil {
			t.Fatalf("round trip re-parse failed: %v\nserialised:\n%s", err, out)
		}
		if c2.N != c.N || len(c2.Gates) != len(c.Gates) {
			t.Fatalf("round trip changed shape: %d/%d gates, %d/%d qubits",
				len(c.Gates), len(c2.Gates), c.N, c2.N)
		}
		for i := range c.Gates {
			if c.Gates[i].Op != c2.Gates[i].Op || c.Gates[i].Q0 != c2.Gates[i].Q0 ||
				c.Gates[i].Q1 != c2.Gates[i].Q1 {
				t.Fatalf("round trip changed gate %d: %v -> %v", i, c.Gates[i], c2.Gates[i])
			}
		}
	})
}
