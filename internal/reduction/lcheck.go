package reduction

import (
	"context"
	"fmt"

	"joinpebble/internal/core"
	"joinpebble/internal/solver"
	"joinpebble/internal/tsp"
)

// LCheck is the outcome of verifying the Definition 4.2 L-reduction
// properties on one instance pair.
type LCheck struct {
	// OptA and OptB are the optimal costs of the source instance and its
	// image.
	OptA, OptB int
	// Alpha is the observed ratio OPT(f(x)) / OPT(x) (property 1 demands
	// it stay below a constant α).
	Alpha float64
	// MaxBetaViolation is the largest observed
	// (cost(g(s)) − OPT(x)) − β·(cost(s) − OPT(f(x))) over the sampled
	// feasible solutions s, for β = 1. <= 0 means property 2 held with
	// β = 1 on every sample.
	MaxBetaViolation int
	// Samples is the number of feasible solutions tested.
	Samples int
}

// CheckDegree4To3 verifies both L-reduction properties for one
// TSP-4(1,2) instance: exact optima on both sides, the forward witness,
// and property 2 over the provided H tours (plus the optimal H tour).
func CheckDegree4To3(r *Degree4To3, hTours []tsp.Tour) (*LCheck, error) {
	gin, hin := r.Instances()
	optTourG, optG, err := tsp.Exact(context.TODO(), gin)
	if err != nil {
		return nil, err
	}
	optTourH, optH, err := tsp.Exact(context.TODO(), hin)
	if err != nil {
		return nil, err
	}

	// Property 1 witness: lifting the optimal G tour must cost at least
	// OPT(H) (by optimality) and bounds it from above.
	lifted, err := r.ForwardTour(optTourG)
	if err != nil {
		return nil, err
	}
	if c := hin.Cost(lifted); c < optH {
		return nil, fmt.Errorf("reduction: lifted tour cost %d below OPT(H)=%d — solver bug", c, optH)
	}

	check := &LCheck{OptA: optG, OptB: optH}
	if optG > 0 {
		check.Alpha = float64(optH) / float64(optG)
	}

	tours := append([]tsp.Tour{optTourH}, hTours...)
	for _, t := range tours {
		back, err := r.BackTour(t)
		if err != nil {
			return nil, err
		}
		lhs := gin.Cost(back) - optG
		rhs := hin.Cost(t) - optH
		if v := lhs - rhs; v > check.MaxBetaViolation {
			check.MaxBetaViolation = v
		}
		check.Samples++
	}
	return check, nil
}

// CheckIncidence verifies the Theorem 4.4 reduction on one TSP-3(1,2)
// instance: both optima are computed exactly, the forward scheme realizes
// π̂(B) = 2m + J* + 1, and the back-mapped tours (from the optimal scheme
// plus the given extra schemes) satisfy property 2 with β = 1.
func CheckIncidence(r *TSPToPebble, extraSchemes []core.Scheme) (*LCheck, error) {
	gin := tsp.NewInstance(r.G)
	optTourG, optG, err := tsp.Exact(context.TODO(), gin)
	if err != nil {
		return nil, err
	}
	bg := r.B.Graph()
	optB, err := solver.OptimalCost(bg)
	if err != nil {
		return nil, err
	}
	// Forward witness: the lifted scheme must be valid and match the
	// predicted cost exactly when it is optimal.
	lifted, err := r.ForwardScheme(optTourG)
	if err != nil {
		return nil, err
	}
	liftedCost, err := core.Verify(bg, lifted)
	if err != nil {
		return nil, err
	}
	if want := r.PebbleCostFromTourCost(optG); liftedCost != want {
		return nil, fmt.Errorf("reduction: lifted scheme costs %d, predicted %d", liftedCost, want)
	}
	if liftedCost < optB {
		return nil, fmt.Errorf("reduction: lifted scheme cost %d below optimum %d — solver bug", liftedCost, optB)
	}

	check := &LCheck{OptA: optG, OptB: optB}
	if optG > 0 {
		check.Alpha = float64(optB) / float64(optG)
	}
	schemes := append([]core.Scheme{lifted}, extraSchemes...)
	for _, s := range schemes {
		cost, err := core.Verify(bg, s)
		if err != nil {
			return nil, err
		}
		back, err := r.BackTour(s)
		if err != nil {
			return nil, err
		}
		lhs := gin.Cost(back) - optG
		rhs := cost - optB
		if v := lhs - rhs; v > check.MaxBetaViolation {
			check.MaxBetaViolation = v
		}
		check.Samples++
	}
	return check, nil
}
