package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"atomique/internal/bench"
	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/qasm"
)

// Workload names, as passed to --workload.
const (
	wlCold      = "compile-cold"
	wlHot       = "compile-hot"
	wlShots     = "shots"
	wlBaselines = "baselines"
)

var workloadNames = []string{wlCold, wlHot, wlShots, wlBaselines}

// kind is the endpoint a request goes to.
type kind uint8

const (
	kindCompile  kind = iota // POST /v1/compile
	kindSimulate             // POST /v1/simulate
	kindSample               // POST /v1/sample
	kindStream               // POST /v1/sample?stream=1
)

func (k kind) path() string {
	return [...]string{"/v1/compile", "/v1/simulate", "/v1/sample", "/v1/sample?stream=1"}[k]
}

// circuitInput is one circuit the workload sends, by registry name or as
// inline OpenQASM.
type circuitInput struct {
	name string
	circ *circuit.Circuit
	// text is the OpenQASM source and quoted its JSON string form, built
	// once so request bodies are assembled by appending bytes.
	text   string
	quoted []byte
}

// request is one generated request. Zero fields are left out of the body.
type request struct {
	circ      int  // index into inputs.circuits
	named     bool // send by registry name instead of inline QASM
	kind      kind
	backend   string
	family    string
	seed      int64
	slm, aods int // machine override: slm x slm SLM and aods AODs of the same size
	shots     int
	noiseSeed int64
	offset    int64
}

// inputs is everything a run sends, generated from the seed before the
// engine starts.
type inputs struct {
	workload string
	circuits []circuitInput
	// reqs holds the distinct requests; seq lists the indices into reqs in
	// send order (nil means reqs in order, each sent once).
	reqs []request
	seq  []int32
	// warm are the set-up requests: one per input kind (compile-hot: the
	// cache fill), sent before every timed window and never in it.
	warm []request
	// check marks the stream positions whose replies are kept for the
	// full output checks: the first occurrence of every circuit and
	// backend pair (and kind, on shots).
	check map[int]bool
}

func (in *inputs) len() int {
	if in.seq != nil {
		return len(in.seq)
	}
	return len(in.reqs)
}

// at returns the request sent at stream position i.
func (in *inputs) at(i int) *request {
	if in.seq != nil {
		return &in.reqs[in.seq[i]]
	}
	return &in.reqs[i]
}

// body appends the JSON body of r to dst.
func (in *inputs) body(dst []byte, r *request) []byte {
	c := &in.circuits[r.circ]
	dst = append(dst, '{')
	if r.named {
		dst = append(dst, `"benchmark":"`...)
		dst = append(dst, c.name...)
		dst = append(dst, '"')
	} else {
		dst = append(dst, `"qasm":`...)
		dst = append(dst, c.quoted...)
	}
	str := func(key, v string) {
		if v != "" {
			dst = append(dst, `,"`+key+`":"`...)
			dst = append(dst, v...)
			dst = append(dst, '"')
		}
	}
	num := func(key string, v int64) {
		if v != 0 {
			dst = append(dst, `,"`+key+`":`...)
			dst = strconv.AppendInt(dst, v, 10)
		}
	}
	str("backend", r.backend)
	str("family", r.family)
	num("seed", r.seed)
	num("slm", int64(r.slm))
	num("aods", int64(r.aods))
	num("aodSize", int64(r.slm))
	num("shots", int64(r.shots))
	num("noiseSeed", r.noiseSeed)
	num("shotOffset", r.offset)
	return append(dst, '}')
}

// digest identifies the generated traffic: every circuit text and every
// request field in send order, so two runs with the same seed can be shown
// to send the same bytes.
func (in *inputs) digest() string {
	h := sha256.New()
	h.Write([]byte(in.workload))
	for _, c := range in.circuits {
		fmt.Fprintf(h, "%s\n%s", c.name, c.text)
	}
	for _, rs := range [][]request{in.warm, in.reqs} {
		for i := range rs {
			fmt.Fprintf(h, "%+v\n", rs[i])
		}
	}
	if err := binary.Write(h, binary.LittleEndian, in.seq); err != nil {
		panic(err) // a hash never fails to write
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func newCircuit(name string, c *circuit.Circuit) circuitInput {
	text := qasm.String(c)
	quoted, err := json.Marshal(text)
	if err != nil {
		panic(err) // a string always marshals
	}
	return circuitInput{name: name, circ: c, text: text, quoted: quoted}
}

func table2Circuits() []circuitInput {
	var out []circuitInput
	for _, b := range bench.Table2Suite() {
		out = append(out, newCircuit(b.Name, b.Circ))
	}
	return out
}

// rounds returns n stream entries drawn round by round: each round is a
// fresh seeded permutation of cells, so every cell appears equally often
// (within one round) in any prefix. Each request is still uniform over the
// cells, but the mix no longer depends on the seed, which keeps aggregate
// timings comparable across seeds.
func rounds(rng *rand.Rand, cells, n int) []int {
	out := make([]int, 0, n+cells)
	for len(out) < n {
		out = append(out, rng.Perm(cells)...)
	}
	return out[:n]
}

// fig20Sizes and fig20AODs are the square array sizes of the paper's Fig 20b
// and the AOD counts of Fig 20c.
var (
	fig20Sizes = []int{7, 8, 9, 10, 12, 14, 16, 20}
	fig20AODs  = []int{1, 2, 3, 4, 5, 6, 7}
)

// machineFor draws a Fig 20b size and Fig 20c AOD count whose machine holds
// an n-qubit circuit.
func machineFor(rng *rand.Rand, n int) (slm, aods int) {
	type m struct{ s, a int }
	var fits []m
	for _, s := range fig20Sizes {
		for _, a := range fig20AODs {
			if s*s*(1+a) >= n {
				fits = append(fits, m{s, a})
			}
		}
	}
	pick := fits[rng.Intn(len(fits))]
	return pick.s, pick.a
}

// comparators are the baselines workload's backends; sabre and geyser also
// draw a Fig 13 coupling family.
var comparators = []string{"geyser", "qpilot", "sabre", "solverref", "zoned"}

// routedSeeds is how many compile seeds the sabre and geyser requests cycle
// through instead of taking fresh ones. The SABRE router both run on a
// fixed coupling graph (internal/sabre) has no release valve: on rare seeds
// it swaps forever, allocating without bound, and the request never
// returns. Two inputs that do: QV-32 on the rectangular family (either
// backend) with seed 100001021551, and QAOA-regu5-40 on geyser's
// superconducting family with seed 401933405019. Seeds 1 to routedSeeds+1
// were each run on every circuit, backend and family here and finish. A
// 20 s window sends each circuit, backend and family about 20 times, so
// these requests still miss the cache. Once the router is bounded, fresh
// seeds can replace the cycle.
const routedSeeds = 64

// shotsFor sizes each shots-workload circuit so that its trajectory work
// costs about the same as the others' (a few ms on one core); LiH-8 errs on
// nearly every shot and replays 3.8k gates each time, so it gets the fewest.
var shotsFor = map[string]int{
	"HHL-7": 128, "Mermin-Bell-10": 256, "H2-4": 8192, "LiH-8": 8,
	"QAOA-rand-10": 2048, "Mermin-Bell-5": 16384, "VQE-10": 4096,
	"Adder-10": 256, "QSim-rand-5": 8192, "QSim-rand-10": 128,
	"QAOA-rand-5": 16384, "QAOA-regu4-10": 2048,
	"BV-14": 4096, "BV-50": 4096, "BV-70": 4096, "GHZ-64": 4096, "GHZ-128": 4096,
}

// sampleShards is how many consecutive shot ranges one sample job is cut
// into before the next job of the same circuit starts.
const sampleShards = 4

// generate builds a workload's inputs from the seed: n stream requests
// plus the warm-up set.
func generate(workload string, seed int64, n int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{workload: workload, check: map[int]bool{}}
	// Compile seeds are fresh per request: a base drawn from the seed plus
	// the stream position, so no two requests share a cache key.
	seedBase := 1 + rng.Int63n(1<<40)
	switch workload {
	case wlCold:
		in.circuits = table2Circuits()
		nc := len(in.circuits)
		// Four cells per circuit: one with a machine override, three on
		// the engine's default machine.
		first := map[int]bool{}
		for i, cell := range rounds(rng, 4*nc, n) {
			r := request{circ: cell % nc, seed: seedBase + int64(i)}
			if cell/nc == 0 {
				r.slm, r.aods = machineFor(rng, in.circuits[r.circ].circ.N)
			}
			in.reqs = append(in.reqs, r)
			if !first[r.circ] {
				first[r.circ] = true
				in.check[i] = true
			}
		}
		h2 := in.index("H2-4")
		in.warm = []request{{circ: h2, seed: -1}, {circ: h2, seed: -2, slm: 7, aods: 1}}
	case wlHot:
		in.circuits = table2Circuits()
		nc := len(in.circuits)
		// A fixed set of 64 distinct requests, below the 256-entry cache:
		// 32 inline and 32 by registry name, each half covering every
		// circuit once and the first five of the suite twice. The seed
		// picks only the compile seeds and the draw order, so the mix,
		// and with it the timings, do not depend on it.
		for _, named := range []bool{false, true} {
			for j := 0; j < 32; j++ {
				in.reqs = append(in.reqs, request{circ: j % nc, named: named, seed: seedBase + int64(len(in.reqs))})
			}
		}
		in.warm = in.reqs
		for _, d := range rounds(rng, len(in.reqs), n) {
			in.seq = append(in.seq, int32(d))
		}
	case wlShots:
		for _, b := range bench.Table2Suite() {
			if b.Circ.N <= 12 && !b.Circ.IsClifford() || b.Name == "BV-14" || b.Name == "BV-50" || b.Name == "BV-70" {
				in.circuits = append(in.circuits, newCircuit(b.Name, b.Circ))
			}
		}
		in.circuits = append(in.circuits, newCircuit("GHZ-64", bench.GHZ(64)), newCircuit("GHZ-128", bench.GHZ(128)))
		var dense, stab []int
		for i, c := range in.circuits {
			if _, ok := shotsFor[c.name]; !ok {
				return nil, fmt.Errorf("no shot count for %s", c.name)
			}
			if c.circ.IsClifford() {
				stab = append(stab, i)
			} else {
				dense = append(dense, i)
			}
		}
		// Eight kind slots per circuit visit: four simulate, three sample
		// and one streamed sample. Dense and stabilizer circuits each get
		// half the requests, whatever their counts.
		slots := []kind{kindSimulate, kindSimulate, kindSimulate, kindSimulate, kindSample, kindSample, kindSample, kindStream}
		var cells [][2]int
		for _, group := range [][]int{dense, stab} {
			reps := len(dense) * len(stab) / len(group)
			for _, c := range group {
				for k := 0; k < reps*len(slots); k++ {
					cells = append(cells, [2]int{c, k % len(slots)})
				}
			}
		}
		jobSeed := map[int]int64{}
		shard := map[int]int{}
		first := map[[2]int]bool{}
		for i, cell := range rounds(rng, len(cells), n) {
			c, k := cells[cell][0], slots[cells[cell][1]]
			r := shotRequest(in, c, k)
			if k == kindSimulate {
				r.noiseSeed = seedBase + int64(i)
			} else {
				// Sample requests walk consecutive shot ranges of one job
				// per circuit, then start the next job with a new seed.
				if shard[c]%sampleShards == 0 {
					jobSeed[c] = seedBase + int64(i)
				}
				r.noiseSeed = jobSeed[c]
				r.offset = int64(shard[c]%sampleShards) * int64(r.shots)
				shard[c]++
			}
			in.reqs = append(in.reqs, r)
			if key := [2]int{c, int(k)}; !first[key] {
				first[key] = true
				in.check[i] = true
			}
		}
		for _, c := range []int{dense[0], stab[0]} {
			for _, k := range []kind{kindSimulate, kindSample, kindStream} {
				r := shotRequest(in, c, k)
				r.noiseSeed = -1 - int64(len(in.warm))
				in.warm = append(in.warm, r)
			}
		}
	case wlBaselines:
		in.circuits = table2Circuits()
		nc := len(in.circuits)
		// Per circuit, four cells for each backend: sabre and geyser use
		// one per coupling family, the others repeat their one target.
		fams := compiler.Families()
		per := len(comparators) * len(fams)
		first := map[[2]int]bool{}
		// Per sabre/geyser circuit, backend and family: a seeded start in
		// the seed cycle and the requests sent so far.
		start, sent := map[int]int{}, map[int]int{}
		for i, cell := range rounds(rng, nc*per, n) {
			b := (cell % per) / len(fams)
			r := request{circ: cell / per, backend: comparators[b], seed: seedBase + int64(i)}
			if r.backend == "sabre" || r.backend == "geyser" {
				r.family = fams[cell%len(fams)]
				if _, ok := start[cell]; !ok {
					start[cell] = rng.Intn(routedSeeds)
				}
				r.seed = 1 + int64((start[cell]+sent[cell])%routedSeeds)
				sent[cell]++
			}
			in.reqs = append(in.reqs, r)
			if key := [2]int{r.circ, b}; !first[key] {
				first[key] = true
				in.check[i] = true
			}
		}
		h2 := in.index("H2-4")
		for _, b := range comparators {
			r := request{circ: h2, backend: b, seed: routedSeeds + 1}
			if b == "sabre" || b == "geyser" {
				r.family = compiler.FamilySuperconducting
			}
			in.warm = append(in.warm, r)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return in, nil
}

// shotRequest is a shots-workload request of kind k on circuit c:
// registry circuits go by name, the generated GHZ circuits inline.
func shotRequest(in *inputs, c int, k kind) request {
	_, named := bench.ByName(in.circuits[c].name)
	return request{circ: c, named: named, kind: k, shots: shotsFor[in.circuits[c].name]}
}

func (in *inputs) index(name string) int {
	for i, c := range in.circuits {
		if c.name == name {
			return i
		}
	}
	panic("perfbench: no circuit " + name)
}
