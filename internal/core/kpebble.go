package core

import (
	"fmt"

	"joinpebble/internal/graph"
)

// The k-pebble game generalizes §2's two-pebble game: k pebbles sit on
// vertices, one moves per step, and an edge is deleted as soon as both
// endpoints carry pebbles. In the [6] page-fetch reading, k is the
// buffer-pool size. The paper fixes k = 2; this extension quantifies how
// much of the hardness is specific to that choice — one extra pebble
// already dissolves the Theorem 3.3 lower bound (see the E18 experiment
// and KSpiderScheme).

// KConfig is a k-pebble configuration: the position of each pebble. A
// pebble may be parked off-graph as Unplaced before its first move.
type KConfig []int

// Unplaced marks a pebble not yet on the graph.
const Unplaced = -1

// KScheme is a sequence of single-pebble moves. Move i places or moves
// pebble Pebble[i] to vertex To[i].
type KScheme struct {
	K     int
	Moves []KMove
}

// KMove moves one pebble to a vertex.
type KMove struct {
	Pebble int
	To     int
}

// Cost returns the number of moves — the direct analogue of π̂ (initial
// placements count as moves, matching Definition 2.1's accounting).
func (s *KScheme) Cost() int { return len(s.Moves) }

// VerifyK replays a k-pebble scheme, checks that it deletes every edge,
// and returns its move count.
func VerifyK(g *graph.Graph, s *KScheme) (int, error) {
	if s.K < 2 {
		return 0, fmt.Errorf("core: k-pebble game needs k >= 2, got %d", s.K)
	}
	pos := make(KConfig, s.K)
	for i := range pos {
		pos[i] = Unplaced
	}
	// occupied[v] counts pebbles on v.
	occupied := make([]int, g.N())
	deleted := make([]bool, g.M())
	count := 0
	for i, mv := range s.Moves {
		if mv.Pebble < 0 || mv.Pebble >= s.K {
			return 0, fmt.Errorf("core: move %d: pebble %d outside [0,%d)", i, mv.Pebble, s.K)
		}
		if mv.To < 0 || mv.To >= g.N() {
			return 0, fmt.Errorf("core: move %d: vertex %d out of range", i, mv.To)
		}
		if old := pos[mv.Pebble]; old != Unplaced {
			occupied[old]--
		}
		pos[mv.Pebble] = mv.To
		occupied[mv.To]++
		// Only edges at the vertex just covered can become deleted.
		for _, ei := range g.IncidentEdges(mv.To) {
			if e := g.EdgeAt(ei); !deleted[ei] && occupied[e.U] > 0 && occupied[e.V] > 0 {
				deleted[ei] = true
				count++
			}
		}
	}
	if count != g.M() {
		return 0, fmt.Errorf("core: k-scheme deletes %d of %d edges", count, g.M())
	}
	return s.Cost(), nil
}

// GreedyK builds a k-pebble scheme greedily: repeatedly make the move
// that deletes the most remaining edges, breaking ties by lowest vertex;
// when no single move deletes anything, seed the two pebbles with the
// endpoints of the lowest-indexed remaining edge. Completeness is
// guaranteed (the fallback always makes progress); optimality is not.
func GreedyK(g *graph.Graph, k int) (*KScheme, error) {
	if k < 2 {
		return nil, fmt.Errorf("core: k-pebble game needs k >= 2, got %d", k)
	}
	s := &KScheme{K: k}
	pos := make(KConfig, k)
	for i := range pos {
		pos[i] = Unplaced
	}
	occupied := make([]int, g.N())
	deleted := make([]bool, g.M())
	remaining := g.M()

	countGain := func(pebble, v int) int {
		// Edges newly covered if pebble moves to v.
		old := pos[pebble]
		gain := 0
		for _, ei := range g.IncidentEdges(v) {
			if deleted[ei] {
				continue
			}
			e := g.EdgeAt(ei)
			u := e.Other(v)
			occ := occupied[u]
			if u == old {
				occ-- // the moving pebble no longer covers u
			}
			if occ > 0 {
				gain++
			}
		}
		return gain
	}
	apply := func(pebble, v int) {
		if old := pos[pebble]; old != Unplaced {
			occupied[old]--
		}
		pos[pebble] = v
		occupied[v]++
		s.Moves = append(s.Moves, KMove{Pebble: pebble, To: v})
		for _, ei := range g.IncidentEdges(v) {
			if deleted[ei] {
				continue
			}
			e := g.EdgeAt(ei)
			if occupied[e.U] > 0 && occupied[e.V] > 0 {
				deleted[ei] = true
				remaining--
			}
		}
	}

	// usefulness counts remaining edges at a pebble's position — moving
	// or reseeding the least useful pebble preserves parked hubs.
	usefulness := func(p int) int {
		if pos[p] == Unplaced {
			return -1 // always prefer placing a fresh pebble
		}
		u := 0
		for _, ei := range g.IncidentEdges(pos[p]) {
			if !deleted[ei] {
				u++
			}
		}
		return u
	}

	for remaining > 0 {
		bestPebble, bestVertex, bestGain, bestUse := -1, -1, 0, 0
		for p := 0; p < k; p++ {
			use := usefulness(p)
			for v := 0; v < g.N(); v++ {
				if occupied[v] > 0 && pos[p] != v {
					// Stacking pebbles never helps.
					continue
				}
				gain := countGain(p, v)
				if gain > bestGain || (gain == bestGain && gain > 0 && use < bestUse) {
					bestPebble, bestVertex, bestGain, bestUse = p, v, gain, use
				}
			}
		}
		if bestGain > 0 {
			apply(bestPebble, bestVertex)
			continue
		}
		// Seed the two least useful pebbles on the next remaining edge.
		p1, p2 := leastUsefulPair(k, usefulness)
		for ei := 0; ei < g.M(); ei++ {
			if !deleted[ei] {
				e := g.EdgeAt(ei)
				apply(p1, e.U)
				apply(p2, e.V)
				break
			}
		}
	}
	return s, nil
}

// leastUsefulPair returns the two pebbles with the lowest usefulness.
func leastUsefulPair(k int, usefulness func(int) int) (int, int) {
	p1, p2 := 0, 1
	u1, u2 := usefulness(0), usefulness(1)
	if u2 < u1 {
		p1, p2, u1, u2 = p2, p1, u2, u1
	}
	for p := 2; p < k; p++ {
		u := usefulness(p)
		switch {
		case u < u1:
			p2, u2 = p1, u1
			p1, u1 = p, u
		case u < u2:
			p2, u2 = p, u
		}
	}
	return p1, p2
}
