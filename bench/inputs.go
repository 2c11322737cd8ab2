package main

import (
	"encoding/json"
	"sort"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/guard"
	"gem5rtl/internal/sim"
)

// Inputs is everything the six workloads consume. It is a pure function of
// (seed, small): the program under test only ever sees these values, never
// the seed.
type Inputs struct {
	Seed  uint64 `json:"seed"`
	Small bool   `json:"small"`
	// SortN sizes the Table 2 sort benchmark (SelectionSort/BubbleSort over
	// N elements, QuickSort over 10N); SleepUs is its inter-phase sleep.
	SortN   int `json:"sort_n"`
	SleepUs int `json:"sleep_us"`
	// CosimScale is the Table 3 trace scale (1 = the paper-sized layers).
	CosimScale int `json:"cosim_scale"`
	// Grid is the Figure 6/7 sample: every technology point of the strata
	// below plus the ideal-memory baselines they normalise against, in
	// seeded order.
	Grid []experiments.RunSpec `json:"grid"`
	// Jobs[c] is client c's sweepd submissions. A third of the technology
	// points are shared by both clients and a third belongs to each alone,
	// so half of every client's points overlap the other's. The seed orders
	// the points inside a job; what each job holds is fixed (dealJobs).
	Jobs [2][][]experiments.RunSpec `json:"jobs"`
}

// simMicrosecond converts ticks to the unit sim_us_per_host_s reports.
const simMicrosecond = sim.Microsecond

// simLimit bounds one run's simulated time; no benchmark point comes close.
const simLimit = 8 * sim.Second

// strata sizes the inputs: the band the sort size is drawn from, the Table 3
// trace scale, and a grid with one technology point per cell of the product.
type strata struct {
	sortMin, sortMax int
	sleepUs          int
	cosimScale       int
	workloads        []string
	counts           []int
	techs            []string
	inflights        []int
	scale            int
	jobSize          int
}

// The sort size moves with the seed inside a band narrow enough that the
// O(N^2) phases change host time by about 2% between its quartiles: seeds
// must give different inputs, but the contract's spread is taken across
// seeds, so the work per pass has to stay comparable.
var fullStrata = strata{
	sortMin: 198, sortMax: 202, sleepUs: 100, cosimScale: 1,
	workloads: []string{"sanity3", "googlenet"},
	counts:    []int{1, 2, 4},
	techs:     []string{"DDR4-1ch", "DDR4-4ch", "HBM"},
	inflights: []int{4, 64, 240},
	scale:     32,
	jobSize:   3,
}

// smallStrata keeps one cell of every kind the full grid has (light, and
// the contended 4-NVDLA x DDR4-1ch point) at a scale the unit test affords.
var smallStrata = strata{
	sortMin: 16, sortMax: 18, sleepUs: 10, cosimScale: 64,
	workloads: []string{"sanity3"},
	counts:    []int{1, 2, 4},
	techs:     []string{"DDR4-1ch", "DDR4-4ch", "HBM"},
	inflights: []int{64},
	scale:     64,
	jobSize:   3,
}

func (st strata) spec(wl string, n int, mem string, inflight int) experiments.RunSpec {
	return experiments.RunSpec{Workload: wl, NVDLAs: n, Memory: mem,
		Inflight: inflight, Scale: st.scale, Limit: simLimit}
}

// techPoints lists the grid's technology points in canonical order.
func (st strata) techPoints() []experiments.RunSpec {
	var out []experiments.RunSpec
	for _, wl := range st.workloads {
		for _, n := range st.counts {
			for _, mem := range st.techs {
				for _, inf := range st.inflights {
					out = append(out, st.spec(wl, n, mem, inf))
				}
			}
		}
	}
	return out
}

// baselines lists the ideal-memory runs the technology points normalise to.
func (st strata) baselines() []experiments.RunSpec {
	var out []experiments.RunSpec
	for _, wl := range st.workloads {
		for _, n := range st.counts {
			for _, inf := range st.inflights {
				out = append(out, st.spec(wl, n, "ideal", inf))
			}
		}
	}
	return out
}

func shuffle(r *guard.RNG, s []experiments.RunSpec) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

func stratumFor(small bool) strata {
	if small {
		return smallStrata
	}
	return fullStrata
}

// Generate builds the inputs for a seed. Each consumer draws from its own
// splitmix64 stream (guard.DeriveSeed), so changing how one input is drawn
// never shifts another.
func Generate(seed uint64, small bool) *Inputs {
	st := stratumFor(small)
	in := &Inputs{Seed: seed, Small: small, SleepUs: st.sleepUs, CosimScale: st.cosimScale}
	in.SortN = st.sortMin + guard.NewRNG(guard.DeriveSeed(seed, 0)).Intn(st.sortMax-st.sortMin+1)

	in.Grid = append(st.techPoints(), st.baselines()...)
	shuffle(guard.NewRNG(guard.DeriveSeed(seed, 1)), in.Grid)

	// Split the technology points three ways — shared, client 0's own,
	// client 1's own — by a fixed rule: of every three canonical neighbours
	// (one cell at its three in-flight caps) one goes to each part, rotating,
	// so every part holds a third of the costly 240-in-flight points. What a
	// job costs must not depend on the seed, or the spread taken across
	// seeds measures the draw and not the system; the seed decides which
	// client owns which private part and every order.
	//
	// The service workloads take the sanity3 half of the grid: googlenet's
	// points cost three times as much, and a sweepd-cold pass over all 54
	// takes 4 to 5 s here, which leaves a 10 s run two passes to choose its
	// best from.
	var parts [3][]experiments.RunSpec
	for i, spec := range st.techPoints()[:len(st.techPoints())/len(st.workloads)] {
		parts[(i+i/3)%3] = append(parts[(i+i/3)%3], spec)
	}
	r := guard.NewRNG(guard.DeriveSeed(seed, 2))
	swap := r.Intn(2)
	for c := range in.Jobs {
		pts := append(append([]experiments.RunSpec{}, parts[0]...), parts[1+(c+swap)%2]...)
		in.Jobs[c] = dealJobs(r, pts, st.jobSize)
	}
	return in
}

// dealJobs groups a client's points into jobs of size points that each hold
// the same mix of cheap and contended points: the points are ranked by what
// drives their host cost (accelerator count, in-flight cap, memory
// bandwidth, trace) and dealt out like cards, back and forth. A job's
// latency then depends on the service, not on which job drew the heavy
// points. Jobs come out heaviest first, the order a user who knows the grid
// submits in: one point is a third of a client's work, and when it starts
// decides the pass's makespan. The seed orders the points inside each job.
func dealJobs(r *guard.RNG, pts []experiments.RunSpec, size int) [][]experiments.RunSpec {
	sort.Slice(pts, func(a, b int) bool {
		p, q := pts[a], pts[b]
		switch {
		case p.NVDLAs != q.NVDLAs:
			return p.NVDLAs > q.NVDLAs
		case p.Inflight != q.Inflight:
			return p.Inflight > q.Inflight
		case p.Memory != q.Memory:
			return p.Memory < q.Memory // DDR4-1ch < DDR4-4ch < HBM
		}
		return p.Workload < q.Workload // googlenet is the heavier
	})
	jobs := make([][]experiments.RunSpec, (len(pts)+size-1)/size)
	for i, p := range pts {
		j := i % (2 * len(jobs))
		if j >= len(jobs) {
			j = 2*len(jobs) - 1 - j
		}
		jobs[j] = append(jobs[j], p)
	}
	for _, j := range jobs {
		shuffle(r, j)
	}
	return jobs
}

// Bytes renders the inputs canonically; two equal inputs give equal bytes.
func (in *Inputs) Bytes() []byte {
	b, err := json.Marshal(in)
	if err != nil {
		panic("bench: encoding inputs: " + err.Error()) // strings and integers only
	}
	return b
}
