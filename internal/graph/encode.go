package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// The text format used by the CLIs is one record per line:
//
//	bipartite <nLeft> <nRight>   or   graph <n>
//	e <u> <v>                    (one line per edge, in order)
//
// Blank lines and lines starting with '#' are ignored. For bipartite
// graphs u is a left index and v a right index. A repeated edge keeps
// the index of its first line. Vertex counts and side sizes must lie in
// [0, MaxReadVertices].

// MaxReadVertices caps each vertex count and side size Read accepts, so
// a header alone cannot make it allocate without bound.
const MaxReadVertices = 1 << 22

// WriteBipartite serializes b in the text format.
func WriteBipartite(w io.Writer, b *Bipartite) error {
	if _, err := fmt.Fprintf(w, "bipartite %d %d\n", b.NLeft(), b.NRight()); err != nil {
		return err
	}
	for i := 0; i < b.M(); i++ {
		l, r := b.EdgeAt(i)
		if _, err := fmt.Fprintf(w, "e %d %d\n", l, r); err != nil {
			return err
		}
	}
	return nil
}

// Read parses the text format and returns either a *Graph or a
// *Bipartite depending on the header line.
func Read(r io.Reader) (any, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		header string // "graph" or "bipartite" once read
		n      int    // graph vertex count
		nl, nr int    // bipartite side sizes
		edges  []Edge
	)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if header != "" && (fields[0] == "graph" || fields[0] == "bipartite") {
			return nil, fmt.Errorf("graph: line %d: duplicate header", line)
		}
		switch fields[0] {
		case "graph":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: want 'graph <n>'", line)
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &n); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad vertex count: %w", line, err)
			}
			header = "graph"
		case "bipartite":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'bipartite <nLeft> <nRight>'", line)
			}
			if _, err := fmt.Sscanf(fields[1]+" "+fields[2], "%d %d", &nl, &nr); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad side sizes: %w", line, err)
			}
			header = "bipartite"
		case "e":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'e <u> <v>'", line)
			}
			var u, v int
			if _, err := fmt.Sscanf(fields[1]+" "+fields[2], "%d %d", &u, &v); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge: %w", line, err)
			}
			switch header {
			case "graph":
				if u < 0 || v < 0 || u >= n || v >= n || u == v {
					return nil, fmt.Errorf("graph: line %d: edge %d-%d invalid for %d vertices", line, u, v, n)
				}
			case "bipartite":
				if u < 0 || v < 0 || u >= nl || v >= nr {
					return nil, fmt.Errorf("graph: line %d: edge %d-%d outside %dx%d sides", line, u, v, nl, nr)
				}
			default:
				return nil, fmt.Errorf("graph: line %d: edge before header", line)
			}
			edges = append(edges, Edge{U: u, V: v})
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", line, fields[0])
		}
		if min(n, nl, nr) < 0 || max(n, nl, nr) > MaxReadVertices {
			return nil, fmt.Errorf("graph: line %d: vertex count outside [0, %d]", line, MaxReadVertices)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	switch header {
	case "graph":
		return New(n, edges), nil
	case "bipartite":
		return NewBipartite(nl, nr, edges), nil
	default:
		return nil, fmt.Errorf("graph: empty input")
	}
}
