package bench

import (
	"math/rand"
	"strconv"

	"joinpebble/internal/graph"
	"joinpebble/internal/join"
	"joinpebble/internal/partition"
	"joinpebble/internal/workload"
)

// E16Partition explores the paper's closing open problem (§5): how hard
// is finding the optimal mapping of R and S into partitions R_i, S_j?
// The paper states the problem is NP-complete for all three predicate
// classes and conjectures equijoins admit good approximations. Measured
// here: exhaustive optima on tiny instances against the heuristics, and
// at realistic sizes the work of hash (equijoin), grid (spatial) and
// min-element (containment) partitioning against random assignment and
// the read lower bound.
func E16Partition() (*Table, error) {
	t := &Table{
		ID:     "E16",
		Title:  "partitioned-join mapping problem",
		Claim:  "equijoin partitioning is near-optimal by hashing; spatial/containment pay replication (§5 open problem)",
		Header: []string{"workload", "heuristic", "K,L", "active pairs", "work", "lower bound", "work/bound"},
	}
	rng := rand.New(rand.NewSource(1616))

	row := func(workloadName, heuristic string, b *graph.Bipartite, a *partition.Assignment) error {
		st, err := partition.Evaluate(b, a)
		if err != nil {
			return err
		}
		ratio := float64(st.Work) / float64(st.ReadLowerBound)
		t.AddRow(workloadName, heuristic, formatKL(a.K, a.L), st.ActivePairs, st.Work, st.ReadLowerBound, ratio)
		return nil
	}

	// Equijoin: hash vs greedy-graph vs random.
	eq := workload.Equijoin{LeftSize: 200, RightSize: 200, Domain: 30, Skew: 0.5}
	le, re := eq.Generate(21)
	bEq := join.EquiGraph(le.Ints(), re.Ints())
	if err := row("equijoin", "hash(value)", bEq, partition.HashEquijoin(le.Ints(), re.Ints(), 32)); err != nil {
		return nil, err
	}
	if err := row("equijoin", "greedy-graph", bEq, partition.GreedyGraph(bEq, 32, 32)); err != nil {
		return nil, err
	}
	if err := row("equijoin", "random", bEq, partition.Random(rng, 200, 200, 32, 32)); err != nil {
		return nil, err
	}

	// Spatial: grid vs random on clustered data.
	sp := workload.Spatial{LeftSize: 150, RightSize: 150, Span: 100, MaxExtent: 6, Clusters: 4}
	lr, rr := sp.Generate(22)
	bSp := join.OverlapGraph(lr.Rects(), rr.Rects())
	if err := row("spatial", "grid(4x4)", bSp, partition.GridSpatial(lr.Rects(), rr.Rects(), 4)); err != nil {
		return nil, err
	}
	if err := row("spatial", "greedy-graph", bSp, partition.GreedyGraph(bSp, 16, 16)); err != nil {
		return nil, err
	}
	if err := row("spatial", "random", bSp, partition.Random(rng, 150, 150, 16, 16)); err != nil {
		return nil, err
	}

	// Containment: min-element vs random on correlated sets.
	sc := workload.SetContainment{LeftSize: 150, RightSize: 150, Universe: 400,
		LeftMax: 3, RightMax: 9, Correlated: true}
	ls, rs := sc.Generate(23)
	bSc := join.ContainmentGraph(ls.Sets(), rs.Sets())
	if err := row("containment", "min-element", bSc, partition.MinElementSet(ls.Sets(), rs.Sets(), 16)); err != nil {
		return nil, err
	}
	if err := row("containment", "greedy-graph", bSc, partition.GreedyGraph(bSc, 16, 16)); err != nil {
		return nil, err
	}
	if err := row("containment", "random", bSc, partition.Random(rng, 150, 150, 16, 16)); err != nil {
		return nil, err
	}

	// Ground truth on a tiny instance: exhaustive optimum vs heuristics.
	tiny := graph.RandomConnectedBipartite(rng, 4, 4, 8)
	_, optStats, err := partition.Optimal(tiny, 2, 2, 0)
	if err != nil {
		return nil, err
	}
	t.AddRow("tiny 4x4 ground truth", "exhaustive optimum", "2,2",
		optStats.ActivePairs, optStats.Work, optStats.ReadLowerBound,
		float64(optStats.Work)/float64(optStats.ReadLowerBound))
	if err := row("tiny 4x4 ground truth", "greedy-graph", tiny, partition.GreedyGraph(tiny, 2, 2)); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"the paper asserts the mapping problem is NP-complete for all three classes (no proof given; Optimal here is exhaustive) and conjectures equijoins approximate well — the hash row supports the conjecture")
	return t, nil
}

func formatKL(k, l int) string {
	if k == l {
		return strconv.Itoa(k)
	}
	return strconv.Itoa(k) + "," + strconv.Itoa(l)
}
