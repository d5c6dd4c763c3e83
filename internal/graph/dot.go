package graph

import (
	"fmt"
	"io"
)

// WriteDOTBipartite renders a join graph in DOT with the two sides
// ranked left and right and labeled r<i>/s<j>.
func WriteDOTBipartite(w io.Writer, b *Bipartite, name string) error {
	if name == "" {
		name = "JoinGraph"
	}
	if _, err := fmt.Fprintf(w, "graph %s {\n  rankdir=LR;\n", name); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  { rank=same;"); err != nil {
		return err
	}
	for i := 0; i < b.NLeft(); i++ {
		if _, err := fmt.Fprintf(w, " r%d;", i); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, " }"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  { rank=same;"); err != nil {
		return err
	}
	for j := 0; j < b.NRight(); j++ {
		if _, err := fmt.Fprintf(w, " s%d;", j); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, " }"); err != nil {
		return err
	}
	for e := 0; e < b.M(); e++ {
		l, r := b.EdgeAt(e)
		if _, err := fmt.Fprintf(w, "  r%d -- s%d;\n", l, r); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
