package graph

import (
	"strings"
	"testing"
)

func TestWriteDOTBipartite(t *testing.T) {
	b := NewBipartite(2, 2, []Edge{{U: 0, V: 1}})
	var sb strings.Builder
	if err := WriteDOTBipartite(&sb, b, ""); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"rankdir=LR", "r0 -- s1;", "rank=same"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
