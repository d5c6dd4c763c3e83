package graph

import (
	"strings"
	"testing"
)

// FuzzCSRDifferential feeds arbitrary edge lists to New and to the
// map-backed oracle and requires the same panic or identical answers from
// every read accessor (checkAgainstOracle). Bytes are consumed pairwise
// as endpoints: a byte below 0x80 is vertex b mod n, a byte from 0x80 up
// is the raw id b−0x82, mostly out of range. Repeated and reversed pairs
// and self-loops come up on their own.
func FuzzCSRDifferential(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 2, 2, 3})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(6), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 2})
	f.Add(uint8(5), []byte{3, 1, 1, 3, 0, 4, 3, 1, 4, 0, 2, 1})
	f.Add(uint8(3), []byte{0, 1, 2, 2})
	f.Add(uint8(3), []byte{0, 1, 0x80, 2})
	f.Add(uint8(3), []byte{0, 0x85})
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		if n > 32 || len(data) > 256 {
			return
		}
		endpoint := func(b byte) int {
			if b >= 0x80 {
				return int(b) - 0x82
			}
			if n == 0 {
				return int(b)
			}
			return int(b) % int(n)
		}
		edges := make([]Edge, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, Edge{U: endpoint(data[i]), V: endpoint(data[i+1])})
		}
		checkAgainstOracle(t, int(n), edges)
	})
}

// FuzzRead checks the text-format parser never panics and that anything
// it accepts re-serializes to something it accepts again with the same
// shape.
func FuzzRead(f *testing.F) {
	f.Add("graph 3\ne 0 1\ne 1 2\n")
	f.Add("bipartite 2 2\ne 0 0\ne 1 1\n")
	f.Add("# comment\n\nbipartite 1 1\ne 0 0\n")
	f.Add("graph x\n")
	f.Add("e 1 2\n")
	f.Add("bipartite 2 2\ne 0 9\n")
	f.Add("graph -3\n")
	f.Add("bipartite 3 -2\n")
	f.Add("graph 9999999999999\n")
	f.Fuzz(func(t *testing.T, input string) {
		v, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		switch g := v.(type) {
		case *Graph:
			var sb strings.Builder
			if err := writeGraph(&sb, g); err != nil {
				t.Fatal(err)
			}
			back, err := Read(strings.NewReader(sb.String()))
			if err != nil {
				t.Fatalf("round trip rejected: %v", err)
			}
			if !back.(*Graph).Equal(g) {
				t.Fatal("round trip changed the graph")
			}
		case *Bipartite:
			var sb strings.Builder
			if err := WriteBipartite(&sb, g); err != nil {
				t.Fatal(err)
			}
			back, err := readBipartite(strings.NewReader(sb.String()))
			if err != nil {
				t.Fatalf("round trip rejected: %v", err)
			}
			if !back.Equal(g) {
				t.Fatal("round trip changed the bipartite graph")
			}
		}
	})
}
