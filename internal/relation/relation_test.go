package relation

import (
	"strings"
	"testing"

	"joinpebble/internal/sets"
	"joinpebble/internal/spatial"
)

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindInt, KindString, KindSet, KindRect} {
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Fatalf("kind %v round trip: %v %v", k, back, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("unknown kind must fail")
	}
}

func TestTypedAppendAndExtract(t *testing.T) {
	r := FromInts("r", []int64{3, 1, 3})
	if r.Len() != 3 {
		t.Fatal("len")
	}
	vs := r.Ints()
	if vs[0] != 3 || vs[1] != 1 || vs[2] != 3 {
		t.Fatalf("ints=%v", vs)
	}

	s := FromSets("s", []sets.Set{sets.New(1, 2)})
	if !s.Sets()[0].Equal(sets.New(1, 2)) {
		t.Fatal("sets")
	}

	q := FromRects("q", []spatial.Rect{spatial.NewRect(0, 0, 1, 1)})
	if q.Rects()[0] != spatial.NewRect(0, 0, 1, 1) {
		t.Fatal("rects")
	}

	w := fromStrings("w", []string{"a", "b"})
	if w.Strings()[1] != "b" {
		t.Fatal("strings")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New("r", KindInt)
	defer func() {
		if recover() == nil {
			t.Fatal("appending a string to an int relation must panic")
		}
	}()
	r.AppendString("nope")
}

func TestWriteReadRoundTripInt(t *testing.T) {
	r := FromInts("nums", []int64{-5, 0, 42})
	roundTrip(t, r)
}

func TestWriteReadRoundTripString(t *testing.T) {
	r := fromStrings("names", []string{"hello world", "with \"quotes\"", ""})
	roundTrip(t, r)
}

func TestWriteReadRoundTripSet(t *testing.T) {
	r := FromSets("tags", []sets.Set{sets.New(), sets.New(3, 1, 4)})
	roundTrip(t, r)
}

func TestWriteReadRoundTripRect(t *testing.T) {
	r := FromRects("boxes", []spatial.Rect{
		spatial.NewRect(0, 0, 1.5, 2.25),
		spatial.NewRect(-3, -4, -1, -2),
	})
	roundTrip(t, r)
}

func roundTrip(t *testing.T, r *Relation) {
	t.Helper()
	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("read: %v (input %q)", err, sb.String())
	}
	if back.Name != r.Name || back.Kind != r.Kind || back.Len() != r.Len() {
		t.Fatalf("header changed: %s/%v/%d vs %s/%v/%d",
			back.Name, back.Kind, back.Len(), r.Name, r.Kind, r.Len())
	}
	for i := range r.Tuples {
		a, b := r.Tuples[i], back.Tuples[i]
		switch r.Kind {
		case KindInt:
			if a.Int != b.Int {
				t.Fatalf("tuple %d: %d vs %d", i, a.Int, b.Int)
			}
		case KindString:
			if a.Str != b.Str {
				t.Fatalf("tuple %d: %q vs %q", i, a.Str, b.Str)
			}
		case KindSet:
			if !a.Set.Equal(b.Set) {
				t.Fatalf("tuple %d: %v vs %v", i, a.Set, b.Set)
			}
		case KindRect:
			if a.Rect != b.Rect {
				t.Fatalf("tuple %d: %v vs %v", i, a.Rect, b.Rect)
			}
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",
		"notrelation r int\n",
		"relation r bogus\n",
		"relation r int\nxyz\n",
		"relation r rect\n1 2\n",
		"relation r set\n[1,2]\n",
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: want error", in)
		}
	}
}

func TestReadSkipsComments(t *testing.T) {
	in := "# comment\nrelation r int\n\n1\n# more\n2\n"
	r, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("len=%d", r.Len())
	}
}

// fromStrings builds a string relation from a slice.
func fromStrings(name string, vs []string) *Relation {
	r := New(name, KindString)
	for _, v := range vs {
		r.AppendString(v)
	}
	return r
}
