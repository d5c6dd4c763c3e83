package graph

import (
	"strings"
	"testing"
)

func TestWriteDOT(t *testing.T) {
	g := New(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	var sb strings.Builder
	if err := WriteDOT(&sb, g, "Demo"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"graph Demo {", "0 -- 1;", "1 -- 2;", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteDOTDefaultsName(t *testing.T) {
	var sb strings.Builder
	if err := WriteDOT(&sb, New(1, nil), ""); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "graph G {") {
		t.Fatalf("got %q", sb.String())
	}
}

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
