package relation

import (
	"strings"
	"testing"

	"joinpebble/internal/sets"
	"joinpebble/internal/spatial"
)

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindInt: "int", KindSet: "set", KindRect: "rect", Kind(7): "kind(7)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestTypedAppendAndExtract(t *testing.T) {
	iv := []int64{3, 1, 3}
	if got := FromInts("r", iv).Ints(); len(got) != 3 || &got[0] != &iv[0] {
		t.Fatalf("Ints() = %v, want the relation's own slice %v", got, iv)
	}
	sv := []sets.Set{sets.New(1, 2)}
	if got := FromSets("s", sv).Sets(); len(got) != 1 || &got[0] != &sv[0] {
		t.Fatalf("Sets() = %v, want the relation's own slice %v", got, sv)
	}
	rv := []spatial.Rect{spatial.NewRect(0, 0, 1, 1)}
	if got := FromRects("q", rv).Rects(); len(got) != 1 || &got[0] != &rv[0] {
		t.Fatalf("Rects() = %v, want the relation's own slice %v", got, rv)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := FromSets("r", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("reading a set relation's int column must panic")
		}
	}()
	r.Ints()
}

func TestWrite(t *testing.T) {
	for _, c := range []struct {
		name string
		rel  *Relation
		want string
	}{
		{"int", FromInts("nums", []int64{-5, 0, 42}), "relation nums int\n-5\n0\n42\n"},
		{"set", FromSets("tags", []sets.Set{sets.New(), sets.New(3, 1, 4)}), "relation tags set\n{}\n{1,3,4}\n"},
		{"rect", FromRects("boxes", []spatial.Rect{
			spatial.NewRect(0, 0, 1.5, 2.25),
			spatial.NewRect(-3, -4, -1, -2),
		}), "relation boxes rect\n0 0 1.5 2.25\n-3 -4 -1 -2\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var sb strings.Builder
			if err := c.rel.Write(&sb); err != nil {
				t.Fatal(err)
			}
			if sb.String() != c.want {
				t.Fatalf("Write:\n%q\nwant\n%q", sb.String(), c.want)
			}
		})
	}
}
