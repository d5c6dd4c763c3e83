package bench

import (
	"fmt"
	"math/rand"

	"joinpebble/internal/engine"
	"joinpebble/internal/family"
	"joinpebble/internal/graph"
	"joinpebble/internal/join"
	"joinpebble/internal/sets"
	"joinpebble/internal/spatial"
	"joinpebble/internal/workload"
)

// E8Universality verifies Lemma 3.3: every bipartite graph is the join
// graph of a set-containment instance (round trip through the
// construction is exact).
func E8Universality() (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "set-containment universality",
		Claim:  "every bipartite G is a containment join graph (Lemma 3.3)",
		Header: []string{"|R|x|S|", "m", "max |s_j|", "round trip exact"},
	}
	rng := rand.New(rand.NewSource(808))
	for _, sz := range [][3]int{{3, 3, 6}, {4, 5, 12}, {6, 6, 20}, {8, 8, 40}, {12, 10, 80}} {
		b := graph.RandomConnectedBipartite(rng, sz[0], sz[1], sz[2])
		inst := sets.RealizeBipartite(b)
		back := inst.JoinGraph()
		maxCard := 0
		for _, s := range inst.S {
			if s.Len() > maxCard {
				maxCard = s.Len()
			}
		}
		t.AddRow(fmt.Sprintf("%dx%d", sz[0], sz[1]), b.M(), maxCard, back.Equal(b))
	}
	return t, nil
}

// E9Spatial verifies Lemma 3.4: rectangle instances realizing the G_n
// family, agreed on by all three spatial join algorithms.
func E9Spatial() (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "spatial realization of G_n",
		Claim:  "rectangle-overlap instances realize the Fig 1a family (Lemma 3.4)",
		Header: []string{"n", "pairs want", "nested loop", "sweep", "R-tree", "polygons (SAT)", "graph = G_n"},
	}
	for _, n := range []int{2, 4, 8, 16, 64} {
		inst := spatial.RealizeSpider(n)
		nl := join.NestedLoop(inst.R, inst.S, join.Overlaps)
		sw := join.SweepJoin(inst.R, inst.S)
		rt := join.RTreeJoin(inst.R, inst.S)
		poly := spatial.RealizeSpiderPolygons(n)
		pp := join.PolygonNestedLoop(poly.R, poly.S, true)
		b := join.GraphFromPairs(len(inst.R), len(inst.S), nl)
		pb := join.GraphFromPairs(len(poly.R), len(poly.S), pp)
		// The expected join graph is exactly the spider's edge set.
		want := family.Spider(n)
		t.AddRow(n, 2*n, len(nl), len(sw), len(rt), len(pp), b.Equal(want) && pb.Equal(want))
	}
	t.Notes = append(t.Notes,
		"the polygon column uses a chamfered-octagon realization with the SAT overlap test — Lemma 3.4 is stated for polygons; rectangles are its special case")
	return t, nil
}

// E15Algorithms measures the pebbling cost of real join algorithms'
// emission orders — the narrative claim of §1/§5 that equijoins admit
// satisfying algorithms (the zigzag merge is a perfect pebbling) while
// set-containment and spatial algorithms pay jumps.
func E15Algorithms() (*Table, error) {
	t := &Table{
		ID:     "E15",
		Title:  "pebbling cost of real join algorithms",
		Claim:  "equijoin algorithms realize (near-)perfect pebblings; spatial and containment algorithms pay jumps (§1, §5)",
		Header: []string{"workload", "algorithm", "m", "π̂ emitted", "π emitted", "jumps", "perfect"},
	}
	// Each workload flows through the engine pipeline: Generate builds the
	// instance (relations + join graph + guarantees), AuditPairs scores an
	// algorithm's emission order against it — no per-predicate graph
	// plumbing here.
	audit := func(in *engine.Instance, algo string, pairs []join.Pair) error {
		if len(pairs) == 0 {
			return nil
		}
		a, err := in.AuditPairs(pairs)
		if err != nil {
			return err
		}
		t.AddRow(in.Family, algo, a.Pairs, a.Cost, a.EffectiveCost, a.Jumps, a.Perfect)
		return nil
	}

	// Equijoin workload.
	eqIn, err := engine.Generate(workload.Equijoin{LeftSize: 300, RightSize: 300, Domain: 40, Skew: 0.8}, 15)
	if err != nil {
		return nil, err
	}
	le, re := eqIn.Left.Ints(), eqIn.Right.Ints()
	if err := audit(eqIn, "sort-merge (zigzag)", join.SortMergeZigzag(le, re)); err != nil {
		return nil, err
	}
	if err := audit(eqIn, "sort-merge (rewind)", join.SortMerge(le, re)); err != nil {
		return nil, err
	}
	if err := audit(eqIn, "hash join", join.HashJoin(le, re)); err != nil {
		return nil, err
	}

	// Set-containment workload.
	scIn, err := engine.Generate(workload.SetContainment{LeftSize: 120, RightSize: 120, Universe: 400,
		LeftMax: 3, RightMax: 9, Correlated: true}, 16)
	if err != nil {
		return nil, err
	}
	ls, rs := scIn.Left.Sets(), scIn.Right.Sets()
	if err := audit(scIn, "nested loop", join.NestedLoop(ls, rs, join.Contains)); err != nil {
		return nil, err
	}
	if err := audit(scIn, "signature NL", join.SignatureNestedLoop(ls, rs)); err != nil {
		return nil, err
	}
	if err := audit(scIn, "inverted index", join.InvertedIndexJoin(ls, rs)); err != nil {
		return nil, err
	}
	if err := audit(scIn, "partitioned", join.PartitionedSetJoin(ls, rs, 8)); err != nil {
		return nil, err
	}

	// Spatial workload.
	spIn, err := engine.Generate(workload.Spatial{LeftSize: 150, RightSize: 150, Span: 60, MaxExtent: 6, Clusters: 0}, 17)
	if err != nil {
		return nil, err
	}
	lr, rr := spIn.Left.Rects(), spIn.Right.Rects()
	if err := audit(spIn, "nested loop", join.NestedLoop(lr, rr, join.Overlaps)); err != nil {
		return nil, err
	}
	if err := audit(spIn, "plane sweep", join.SweepJoin(lr, rr)); err != nil {
		return nil, err
	}
	if err := audit(spIn, "R-tree probe", join.RTreeJoin(lr, rr)); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"π = m means the algorithm's own emission order is already an optimal pebbling (Definition 2.3)")
	return t, nil
}
