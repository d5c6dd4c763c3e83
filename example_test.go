package joinpebble_test

import (
	"fmt"

	"joinpebble"
)

// The quickstart: equijoin graphs always pebble perfectly (Theorem 3.2).
func ExamplePebble() {
	b := joinpebble.EquijoinGraph([]int64{1, 2, 2}, []int64{2, 2, 3})
	scheme, cost, err := joinpebble.Pebble(b)
	if err != nil {
		panic(err)
	}
	fmt.Println("m:", b.M())
	fmt.Println("π̂:", cost)
	fmt.Println("perfect:", joinpebble.IsPerfect(b, scheme))
	// Output:
	// m: 4
	// π̂: 5
	// perfect: true
}

// The hard family of Theorem 3.3: π(G_n) = 1.25m − 1 at even n.
func ExampleHardFamily() {
	b := joinpebble.HardFamily(4)
	opt, err := joinpebble.OptimalCost(b)
	if err != nil {
		panic(err)
	}
	fmt.Println("m:", b.M())
	fmt.Println("π:", opt-1)
	fmt.Println("1.25m-1:", 5*b.M()/4-1)
	// Output:
	// m: 8
	// π: 9
	// 1.25m-1: 9
}

// Lemma 3.3: any bipartite join graph is a set-containment join graph.
func ExampleAsContainmentJoin() {
	b := joinpebble.NewBipartite(2, 2, []joinpebble.Edge{{U: 0, V: 0}, {U: 1, V: 0}, {U: 1, V: 1}})
	r, s := joinpebble.AsContainmentJoin(b)
	back := joinpebble.ContainmentGraph(r, s)
	fmt.Println("round trip exact:", back.Equal(b))
	fmt.Println("s_0 =", s[0])
	// Output:
	// round trip exact: true
	// s_0 = {0,1}
}

// PEBBLE(D) of Definition 4.1 as a decision call.
func ExampleDecide() {
	g3 := joinpebble.HardFamily(3) // π(G_3) = 7
	for _, k := range []int{6, 7} {
		ok, err := joinpebble.Decide(g3, k)
		if err != nil {
			panic(err)
		}
		fmt.Printf("π <= %d: %v\n", k, ok)
	}
	// Output:
	// π <= 6: false
	// π <= 7: true
}

// Scoring a real algorithm's emission order in the model (§2).
func ExampleAuditEmission() {
	b := joinpebble.EquijoinGraph([]int64{7, 7}, []int64{7, 7})
	// Boustrophedon emission — Lemma 3.2's perfect order.
	pairs := []joinpebble.Pair{{L: 0, R: 0}, {L: 0, R: 1}, {L: 1, R: 1}, {L: 1, R: 0}}
	audit, err := joinpebble.AuditEmission(b, pairs)
	if err != nil {
		panic(err)
	}
	fmt.Println("jumps:", audit.Jumps)
	fmt.Println("perfect:", audit.Perfect)
	// Output:
	// jumps: 0
	// perfect: true
}
