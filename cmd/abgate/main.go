// Command abgate is the repository's performance gate. On one machine, it
// compares the working tree, uncommitted edits included, with the merge-base
// of a git ref and HEAD, checked out in a temporary git worktree. Run it from
// the repository root:
//
//	go run ./cmd/abgate origin/main   # a branch against where it forked
//	go run ./cmd/abgate HEAD          # uncommitted edits against HEAD
//
// It runs 10 interleaved pairs of the Go benchmarks in goBenches and of the
// BENCHMARK.json workloads (seed: pair index + 1), prints one verdict per item
// and metric (see judge), and exits 1 on a regression or on a head workload
// run that reports "correct":false, 2 if it could not run.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
)

// pairs is the number of interleaved base/head pairs; a regression needs the
// head to lose, and a gain to win, at least need of them.
const pairs, need = 10, 9

// goBenches are the Go benchmarks the gate runs, by package.
var goBenches = []struct{ pkg, names string }{
	{"internal/core", "BenchmarkTab2Compile"},
	{"internal/compiler/backends", "BenchmarkBackends"},
	{"internal/noise", "BenchmarkNoisyShots|BenchmarkStabTrajectory|BenchmarkSample"},
}

// goRules gives each Go benchmark metric the rule of a BENCHMARK.json metric.
var goRules = [][2]string{{"ns/op", "cpu_ms_per_req"}, {"B/op", "alloc_kb_per_req"}, {"allocs/op", "alloc_kb_per_req"}}

var sides = [2]string{"base", "head"}

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []rule `json:"end_to_end"`
}

// rule is one metric's direction and relative bound.
type rule struct {
	Name, Better string
	Bound        float64
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: abgate <git-ref>")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	failed, err := run(ctx, os.Args[1])
	stop()
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "abgate:", err)
		os.Exit(2)
	case failed:
		os.Exit(1)
	}
}

func run(ctx context.Context, ref string) (bool, error) {
	sha, err := command(ctx, ".", "git", "merge-base", ref, "HEAD")
	if err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp("", "abgate-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	dirs := [2]string{filepath.Join(tmp, "base"), "."}
	if _, err := command(ctx, ".", "git", "worktree", "add", "--detach", dirs[0], sha); err != nil {
		return false, err
	}
	defer command(context.Background(), ".", "git", "worktree", "remove", "--force", dirs[0])

	var specs [2]spec
	var workloads []string // both sides' workloads, in file order
	has := [2]map[string]bool{{}, {}}
	for s, dir := range dirs {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			err = json.Unmarshal(b, &specs[s])
		}
		if err != nil {
			return false, fmt.Errorf("%s BENCHMARK.json: %w", sides[s], err)
		}
		for _, w := range specs[s].Workloads {
			if !has[0][w.Name] && !has[1][w.Name] {
				workloads = append(workloads, w.Name)
			}
			has[s][w.Name] = true
		}
		for i, gb := range goBenches {
			if _, err := command(ctx, dir, "go", "test", "-c", "-trimpath", "-o", filepath.Join(tmp, sides[s]+strconv.Itoa(i)), "./"+gb.pkg); err != nil {
				return false, err
			}
		}
	}
	fmt.Printf("abgate: base %.12s (merge-base of %s and HEAD) against the working tree, %d pairs\n", sha, ref, pairs)

	t := newTally(specs[1].EndToEnd)
	seconds := strconv.FormatFloat(specs[1].RunSeconds, 'g', -1, 64)
	for p := 0; p < pairs; p++ {
		order := []int{p % 2, 1 - p%2}
		for i, gb := range goBenches {
			for _, s := range order {
				fmt.Fprintf(os.Stderr, "abgate: pair %d/%d %s %s\n", p+1, pairs, sides[s], gb.names)
				out, err := command(ctx, filepath.Join(dirs[s], gb.pkg), filepath.Join(tmp, sides[s]+strconv.Itoa(i)),
					"-test.run", "^$", "-test.bench", "^("+gb.names+")$", "-test.benchmem", "-test.timeout", "10m")
				if err != nil {
					return false, err
				}
				t.goBench(s, out, runtime.GOMAXPROCS(0))
			}
		}
		for _, w := range workloads {
			var digests [2]string
			for _, s := range order {
				if !has[s][w] {
					continue
				}
				fmt.Fprintf(os.Stderr, "abgate: pair %d/%d %s %s\n", p+1, pairs, sides[s], w)
				c := specs[s].Command
				out, err := command(ctx, dirs[s], c[0], slices.Concat(c[1:],
					[]string{"--workload", w, "--seed", strconv.Itoa(p + 1), "--seconds", seconds, "--trace", "0"})...)
				if err == nil {
					digests[s], err = t.workload(s, w, p+1, out)
				}
				if err != nil {
					return false, err
				}
			}
			fmt.Printf("%s seed %d: base %s, head %s, same=%t\n", w, p+1, digests[0], digests[1], digests[0] == digests[1])
		}
	}
	return t.report(os.Stdout), nil
}

// command runs name in dir and returns its trimmed standard output;
// standard error passes through.
func command(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// value is one reading of a metric.
type value struct{ Value float64 }

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// goBench records one side's `go test -bench` result lines, less the -procs
// suffix the testing package adds to names when procs is not 1.
func (t *tally) goBench(side int, out string, procs int) {
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		vals := map[string]value{}
		for f := strings.Fields(m[2]); len(f) >= 2; f = f[2:] {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				vals[f[1]] = value{v}
			}
		}
		if procs != 1 {
			m[1] = strings.TrimSuffix(m[1], "-"+strconv.Itoa(procs))
		}
		t.add(side, m[1], vals)
	}
}

var servedDigest = regexp.MustCompile(`served_digest=\S+`)

// workload records one side's run of workload w: the metrics of its result
// object, the last line of out. A head run that reports "correct":false
// fails the gate. It returns the run's served digest.
func (t *tally) workload(side int, w string, seed int, out string) (string, error) {
	var res struct {
		Correct bool
		Metrics map[string]value
	}
	out = strings.TrimSpace(out)
	if err := json.Unmarshal([]byte(out[strings.LastIndex(out, "\n")+1:]), &res); err != nil {
		return "", fmt.Errorf("%s %s seed %d: last line is not the result object: %w", sides[side], w, seed, err)
	}
	t.add(side, w, res.Metrics)
	if side == 1 && !res.Correct {
		t.failures = append(t.failures, fmt.Sprintf(`head printed "correct":false: %s seed %d`, w, seed))
	}
	return servedDigest.FindString(out), nil
}

// key names one compared series: a benchmark or workload and a metric.
type key struct {
	item string
	rule
}

// tally collects both sides' readings, one per pair, for every key.
type tally struct {
	rules    []rule // the compared metrics in table order, Go benchmark ones first
	vals     [2]map[key][]float64
	order    []key
	failures []string
}

func newTally(e2e []rule) *tally {
	t := &tally{vals: [2]map[key][]float64{{}, {}}}
	for _, g := range goRules {
		r := e2e[slices.IndexFunc(e2e, func(r rule) bool { return r.Name == g[1] })]
		t.rules = append(t.rules, rule{g[0], r.Better, r.Bound})
	}
	t.rules = append(t.rules, e2e...)
	return t
}

// add records one side's readings of item in the current pair.
func (t *tally) add(side int, item string, vals map[string]value) {
	for _, r := range t.rules {
		if v, ok := vals[r.Name]; ok {
			k := key{item, r}
			if t.vals[0][k] == nil && t.vals[1][k] == nil {
				t.order = append(t.order, k)
			}
			t.vals[side][k] = append(t.vals[side][k], v.Value)
		}
	}
}

// report prints the verdict table and reports whether the gate fails.
func (t *tally) report(w io.Writer) bool {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "item\tmetric\tbase median\tbase IQR\thead median\tchange\thead lost/won\tbound\tverdict")
	for _, k := range t.order {
		base, head := t.vals[0][k], t.vals[1][k]
		if len(base) == 0 || len(head) == 0 { // listed, not compared
			fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t\t%s only\n", k.item, k.Name, sides[min(len(head), 1)])
			continue
		}
		v, lost, won := judge(k.rule, base, head)
		if v == "regression" {
			t.failures = append(t.failures, "regression: "+k.item+" "+k.Name)
		}
		mb, mh := median(base), median(head)
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.1f%%\t%.4g\t%+.1f%%\t%d/%d\t%g\t%s\n", k.item, k.Name, mb,
			100*(quantile(base, 0.75)-quantile(base, 0.25))/math.Abs(mb), mh, 100*(mh-mb)/math.Abs(mb), lost, won, k.Bound, v)
	}
	tw.Flush()
	for _, f := range t.failures {
		fmt.Fprintln(w, "abgate: FAIL", f)
	}
	return len(t.failures) > 0
}

// judge is the verdict on one metric's readings, paired by index (ties count
// for neither side): "regression" if the head's median is worse by more than
// the bound and the head lost at least need pairs, "unresolved" if the median
// is that much worse but the head lost fewer, "gain" if the head won at least
// need pairs and the medians differ by more than the base's interquartile
// range, and "ok" otherwise.
func judge(r rule, base, head []float64) (verdict string, lost, won int) {
	sign := 1.0 // makes a worse head positive
	if r.Better == "higher" {
		sign = -1
	}
	for i := 0; i < min(len(base), len(head)); i++ {
		switch d := sign * (head[i] - base[i]); {
		case d > 0:
			lost++
		case d < 0:
			won++
		}
	}
	mb, mh := median(base), median(head)
	switch worse := sign * (mh - mb) / math.Abs(mb); {
	case worse > r.Bound && lost >= need:
		return "regression", lost, won
	case worse > r.Bound:
		return "unresolved", lost, won
	case won >= need && math.Abs(mh-mb) > quantile(base, 0.75)-quantile(base, 0.25):
		return "gain", lost, won
	}
	return "ok", lost, won
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between the order statistics of v.
func quantile(v []float64, q float64) float64 {
	s := slices.Sorted(slices.Values(v))
	pos := q * float64(len(s)-1)
	i := int(pos)
	return s[i] + (pos-float64(i))*(s[min(i+1, len(s)-1)]-s[i])
}
