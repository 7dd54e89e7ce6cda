// Package qasm serialises circuits to and from OpenQASM 2.0, the interchange
// format of the paper's benchmark suites (QASMBench, SupermarQ). The dialect
// covers the IR's gate set: h, x, y, z, s, t, rx, ry, rz, u (as ry), cx, cz,
// rzz, swap, plus qreg/creg declarations, comments, and measure statements
// (parsed and ignored — the compilers schedule unitaries).
package qasm

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"atomique/internal/circuit"
	"atomique/internal/stab"
)

// Input caps. Parse rejects a source line longer than maxLine and a qreg
// wider than MaxQubits with a *ParseError.
const (
	// MaxQubits is the widest register anything in the repository
	// simulates (the stabilizer tableau's width). Each backend declares a
	// lower compile limit in compiler.Capabilities.MaxQubits.
	MaxQubits = stab.MaxQubits
	// maxLine caps one source line; the scanner's buffer grows up to it.
	maxLine = 1 << 20
)

// ParseError is a structured syntax error: the 1-based source line (0 when
// the error concerns the whole program, e.g. a missing qreg declaration) and
// a human-readable message. Services surface it as a 4xx client error,
// distinct from internal failures.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	if e.Line == 0 {
		return "qasm: " + e.Msg
	}
	return fmt.Sprintf("qasm: line %d: %s", e.Line, e.Msg)
}

// Write serialises c as OpenQASM 2.0.
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "OPENQASM 2.0;")
	fmt.Fprintln(bw, `include "qelib1.inc";`)
	fmt.Fprintf(bw, "qreg q[%d];\n", c.N)
	for _, g := range c.Gates {
		if err := writeGate(bw, g); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// String serialises c as an OpenQASM 2.0 string.
func String(c *circuit.Circuit) string {
	var b strings.Builder
	if err := Write(&b, c); err != nil {
		panic(err) // strings.Builder cannot fail
	}
	return b.String()
}

func writeGate(w io.Writer, g circuit.Gate) error {
	var err error
	switch g.Op {
	case circuit.OpH, circuit.OpX, circuit.OpY, circuit.OpZ, circuit.OpS, circuit.OpT:
		_, err = fmt.Fprintf(w, "%s q[%d];\n", g.Op, g.Q0)
	case circuit.OpRX, circuit.OpRY, circuit.OpRZ:
		_, err = fmt.Fprintf(w, "%s(%.17g) q[%d];\n", g.Op, g.Param, g.Q0)
	case circuit.OpU:
		_, err = fmt.Fprintf(w, "ry(%.17g) q[%d];\n", g.Param, g.Q0)
	case circuit.OpCX:
		_, err = fmt.Fprintf(w, "cx q[%d],q[%d];\n", g.Q0, g.Q1)
	case circuit.OpCZ:
		_, err = fmt.Fprintf(w, "cz q[%d],q[%d];\n", g.Q0, g.Q1)
	case circuit.OpZZ:
		_, err = fmt.Fprintf(w, "rzz(%.17g) q[%d],q[%d];\n", g.Param, g.Q0, g.Q1)
	case circuit.OpSWAP:
		_, err = fmt.Fprintf(w, "swap q[%d],q[%d];\n", g.Q0, g.Q1)
	default:
		return fmt.Errorf("qasm: cannot serialise op %v", g.Op)
	}
	return err
}

// Parse reads an OpenQASM 2.0 program. Unsupported-but-harmless statements
// (creg, barrier, measure, include) are skipped; unknown gates are an error.
func Parse(r io.Reader) (*circuit.Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	var c *circuit.Circuit
	line := 0
	for sc.Scan() {
		line++
		stmts := strings.Split(sc.Text(), ";")
		for _, raw := range stmts {
			stmt := strings.TrimSpace(stripComment(raw))
			if stmt == "" {
				continue
			}
			if err := parseStatement(&c, stmt); err != nil {
				return nil, &ParseError{Line: line, Msg: err.Error()}
			}
		}
	}
	if err := sc.Err(); err != nil {
		// A line beyond the buffer cap is malformed input, so it surfaces as
		// a client error like syntax problems; genuine reader I/O failures
		// stay plain errors (a service maps only ParseError to 4xx).
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, &ParseError{Line: line + 1, Msg: err.Error()}
		}
		return nil, fmt.Errorf("qasm: %w", err)
	}
	if c == nil {
		return nil, &ParseError{Msg: "no qreg declaration found"}
	}
	return c, nil
}

// ParseString parses an OpenQASM 2.0 string.
func ParseString(s string) (*circuit.Circuit, error) {
	return Parse(strings.NewReader(s))
}

func stripComment(s string) string {
	if i := strings.Index(s, "//"); i >= 0 {
		return s[:i]
	}
	return s
}

func parseStatement(c **circuit.Circuit, stmt string) error {
	head := stmt
	if i := strings.IndexAny(stmt, " \t("); i >= 0 {
		head = stmt[:i]
	}
	head = strings.ToLower(head)
	switch head {
	case "openqasm", "include", "creg", "barrier", "measure", "reset", "if":
		return nil
	case "qreg":
		n, _, err := parseIndex(stmt)
		if err != nil {
			return err
		}
		if n < 0 {
			// circuit.New panics on negative widths; a negative register is a
			// syntax error, not a compiler bug.
			return fmt.Errorf("negative qreg size %d", n)
		}
		if n > MaxQubits {
			return fmt.Errorf("qreg size %d exceeds the %d-qubit limit", n, MaxQubits)
		}
		if *c != nil {
			return fmt.Errorf("multiple qreg declarations")
		}
		*c = circuit.New(n)
		return nil
	}
	if *c == nil {
		return fmt.Errorf("gate before qreg declaration")
	}
	op, param, args, err := parseGate(stmt)
	if err != nil {
		return err
	}
	want := 1
	if op.IsTwoQubit() {
		want = 2
	}
	if len(args) != want {
		return fmt.Errorf("gate %q needs %d operands, got %d", head, want, len(args))
	}
	for _, a := range args {
		if a < 0 || a >= (*c).N {
			return fmt.Errorf("gate %q operand q[%d] out of range", head, a)
		}
	}
	if op.IsTwoQubit() {
		if args[0] == args[1] {
			return fmt.Errorf("gate %q on identical qubits", head)
		}
		(*c).Add2Q(op, args[0], args[1], param)
	} else {
		(*c).Add1Q(op, args[0], param)
	}
	return nil
}

// parseIndex extracts the first bracketed integer: qreg q[12] -> 12.
func parseIndex(s string) (int, string, error) {
	open := strings.Index(s, "[")
	closeIdx := strings.Index(s, "]")
	if open < 0 || closeIdx < open {
		return 0, "", fmt.Errorf("malformed declaration %q", s)
	}
	n, err := strconv.Atoi(strings.TrimSpace(s[open+1 : closeIdx]))
	if err != nil {
		return 0, "", fmt.Errorf("bad index in %q: %v", s, err)
	}
	return n, s[closeIdx+1:], nil
}

var opByName = map[string]circuit.Op{
	"h": circuit.OpH, "x": circuit.OpX, "y": circuit.OpY, "z": circuit.OpZ,
	"s": circuit.OpS, "t": circuit.OpT, "sdg": circuit.OpS, "tdg": circuit.OpT,
	"rx": circuit.OpRX, "ry": circuit.OpRY, "rz": circuit.OpRZ,
	"u1": circuit.OpRZ, "p": circuit.OpRZ, "u": circuit.OpU, "u3": circuit.OpU,
	"cx": circuit.OpCX, "cnot": circuit.OpCX, "cz": circuit.OpCZ,
	"rzz": circuit.OpZZ, "zz": circuit.OpZZ, "swap": circuit.OpSWAP,
}

func parseGate(stmt string) (circuit.Op, float64, []int, error) {
	name := stmt
	rest := ""
	param := 0.0
	if i := strings.Index(stmt, "("); i >= 0 {
		name = strings.TrimSpace(stmt[:i])
		j := strings.Index(stmt, ")")
		if j < i {
			return 0, 0, nil, fmt.Errorf("unbalanced parens in %q", stmt)
		}
		p, err := parseAngle(stmt[i+1 : j])
		if err != nil {
			return 0, 0, nil, err
		}
		param = p
		rest = stmt[j+1:]
	} else if i := strings.IndexAny(stmt, " \t"); i >= 0 {
		name = stmt[:i]
		rest = stmt[i+1:]
	}
	op, ok := opByName[strings.ToLower(name)]
	if !ok {
		return 0, 0, nil, fmt.Errorf("unsupported gate %q", name)
	}
	var args []int
	for _, operand := range strings.Split(rest, ",") {
		operand = strings.TrimSpace(operand)
		if operand == "" {
			continue
		}
		idx, _, err := parseIndex(operand)
		if err != nil {
			return 0, 0, nil, err
		}
		args = append(args, idx)
	}
	return op, param, args, nil
}

// parseAngle evaluates the restricted angle expressions QASM files use:
// decimal literals, pi, and products/quotients like pi/2, 3*pi/4, -pi/16.
// For u/u3 gates with multiple parameters, the first is used.
func parseAngle(expr string) (float64, error) {
	if i := strings.Index(expr, ","); i >= 0 {
		expr = expr[:i]
	}
	expr = strings.TrimSpace(expr)
	neg := false
	if strings.HasPrefix(expr, "-") {
		neg = true
		expr = expr[1:]
	}
	value := 1.0
	for i, part := range strings.Split(expr, "/") {
		v, err := parseProduct(part)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			value = v
		} else {
			if v == 0 {
				return 0, fmt.Errorf("division by zero in %q", expr)
			}
			value /= v
		}
	}
	if neg {
		value = -value
	}
	return value, nil
}

func parseProduct(expr string) (float64, error) {
	value := 1.0
	for _, f := range strings.Split(expr, "*") {
		f = strings.TrimSpace(f)
		switch strings.ToLower(f) {
		case "pi":
			value *= math.Pi
		case "":
			return 0, fmt.Errorf("empty factor")
		default:
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return 0, fmt.Errorf("bad angle %q: %v", f, err)
			}
			value *= v
		}
	}
	return value, nil
}
