package graph

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

func TestGraphRoundTrip(t *testing.T) {
	g := New(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	var sb strings.Builder
	if err := writeGraph(&sb, g); err != nil {
		t.Fatal(err)
	}
	v, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	h, ok := v.(*Graph)
	if !ok {
		t.Fatalf("got %T", v)
	}
	if !g.Equal(h) {
		t.Fatal("round trip changed graph")
	}
}

func TestBipartiteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := RandomConnectedBipartite(rng, 4, 3, 9)
	var sb strings.Builder
	if err := WriteBipartite(&sb, b); err != nil {
		t.Fatal(err)
	}
	c, err := readBipartite(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Equal(c) {
		t.Fatal("round trip changed bipartite graph")
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\nbipartite 2 2\n e 0 0 \n# another\ne 1 1\n"
	b, err := readBipartite(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if b.M() != 2 || !b.HasEdge(0, 0) || !b.HasEdge(1, 1) {
		t.Fatalf("parsed %v", b)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                   // empty
		"e 0 1\n",            // edge before header
		"graph 2\ngraph 2\n", // duplicate header
		"graph x\n",          // bad count
		"graph 2\ne 0\n",     // short edge
		"bogus 1\n",          // unknown record
		"bipartite 2\n",      // missing side
		"graph 2\ne 0 5\n",   // vertex out of range (panics -> not here)
	}
	for _, in := range cases[:7] {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: want error", in)
		}
	}
}

// TestReadRejectsBadCounts: a header count that is negative or above
// MaxReadVertices is an error, not a panic or an unbounded allocation.
func TestReadRejectsBadCounts(t *testing.T) {
	for _, in := range []string{
		"graph -3\n",
		"bipartite 3 -2\n",
		"graph 9999999999999\n",
		fmt.Sprintf("graph %d\n", MaxReadVertices+1),
		fmt.Sprintf("bipartite %d 1\n", MaxReadVertices+1),
	} {
		_, err := Read(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "outside [0,") {
			t.Errorf("input %q: got error %v, want a count-range error", in, err)
		}
	}
}

func TestReadGeneralAsBipartite(t *testing.T) {
	in := "graph 4\ne 0 1\ne 1 2\ne 2 3\n"
	b, err := readBipartite(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if b.M() != 3 {
		t.Fatalf("m=%d", b.M())
	}
	in = "graph 3\ne 0 1\ne 1 2\ne 2 0\n"
	if _, err := readBipartite(strings.NewReader(in)); err == nil {
		t.Fatal("triangle must fail bipartite read")
	}
}

// writeGraph serializes a general graph in the text format, which only
// the tests write: the CLIs write join graphs.
func writeGraph(w io.Writer, g *Graph) error {
	if _, err := fmt.Fprintf(w, "graph %d\n", g.N()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(w, "e %d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return nil
}

// readBipartite parses the text format and requires a bipartite graph. A
// general-graph input is accepted if it 2-colors cleanly.
func readBipartite(r io.Reader) (*Bipartite, error) {
	v, err := Read(r)
	if err != nil {
		return nil, err
	}
	switch t := v.(type) {
	case *Bipartite:
		return t, nil
	case *Graph:
		b, _, _, err := FromGraph(t)
		return b, err
	}
	return nil, fmt.Errorf("graph: unexpected input type")
}
