package qasm

import (
	"errors"
	"strings"
	"testing"
)

func TestParseErrorStructure(t *testing.T) {
	_, err := ParseString("OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *ParseError", err, err)
	}
	if pe.Line != 3 {
		t.Errorf("line = %d, want 3", pe.Line)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("message %q does not mention the line", err)
	}

	_, err = ParseString("// just a comment\n")
	if !errors.As(err, &pe) {
		t.Fatalf("missing qreg: err = %T, want *ParseError", err)
	}
	if pe.Line != 0 {
		t.Errorf("program-level error line = %d, want 0", pe.Line)
	}
}

// TestAngleCount: a gate given the wrong number of angles is a *ParseError
// on its line, not a gate that silently drops or invents one.
func TestAngleCount(t *testing.T) {
	for _, stmt := range []string{
		"rx(pi,1) q[0];", "rx q[0];", "rzz q[0],q[1];", "h(0.5) q[0];",
		"sdg(pi) q[0];", "u3(0.1,0.2) q[0];", "u(1,2,3,4) q[0];",
	} {
		_, err := ParseString("qreg q[2];\n" + stmt)
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != 2 {
			t.Errorf("%s: err = %v, want a *ParseError on line 2", stmt, err)
		}
	}
}
