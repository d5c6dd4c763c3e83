// Package relation models the paper's single-column relations (§2): a
// named multiset of values over one of the attribute domains the paper
// studies — integers for equijoins (§3.1), sets for containment joins
// (§3.2) and rectangles for overlap joins (§3.3). A relation holds its
// column in the domain's own slice type.
package relation

import (
	"fmt"
	"io"

	"joinpebble/internal/sets"
	"joinpebble/internal/spatial"
)

// Kind identifies the attribute domain of a column.
type Kind int

// Attribute domains.
const (
	KindInt Kind = iota
	KindSet
	KindRect
)

// String names the kind as used in the text format.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindSet:
		return "set"
	case KindRect:
		return "rect"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Relation is a named single-column multiset of values of one Kind.
// Exactly the column matching Kind is set.
type Relation struct {
	Name  string
	Kind  Kind
	ints  []int64
	sets  []sets.Set
	rects []spatial.Rect
}

// FromInts builds an int relation that owns vs.
func FromInts(name string, vs []int64) *Relation {
	return &Relation{Name: name, Kind: KindInt, ints: vs}
}

// FromSets builds a set relation that owns vs.
func FromSets(name string, vs []sets.Set) *Relation {
	return &Relation{Name: name, Kind: KindSet, sets: vs}
}

// FromRects builds a rect relation that owns vs.
func FromRects(name string, vs []spatial.Rect) *Relation {
	return &Relation{Name: name, Kind: KindRect, rects: vs}
}

func (r *Relation) mustKind(k Kind) {
	if r.Kind != k {
		panic(fmt.Sprintf("relation: %s has kind %v, not %v", r.Name, r.Kind, k))
	}
}

// Ints returns the integer column; panics unless KindInt. The returned
// slice is owned by the relation and must not be mutated.
func (r *Relation) Ints() []int64 {
	r.mustKind(KindInt)
	return r.ints
}

// Sets returns the set column; panics unless KindSet. The returned
// slice is owned by the relation and must not be mutated.
func (r *Relation) Sets() []sets.Set {
	r.mustKind(KindSet)
	return r.sets
}

// Rects returns the rectangle column; panics unless KindRect. The
// returned slice is owned by the relation and must not be mutated.
func (r *Relation) Rects() []spatial.Rect {
	r.mustKind(KindRect)
	return r.rects
}

// Write serializes the relation as:
//
//	relation <name> <kind>
//	<value>        (one line per tuple)
func (r *Relation) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "relation %s %s\n", r.Name, r.Kind); err != nil {
		return err
	}
	switch r.Kind {
	case KindInt:
		for _, v := range r.ints {
			if _, err := fmt.Fprintln(w, v); err != nil {
				return err
			}
		}
	case KindSet:
		for _, v := range r.sets {
			if _, err := fmt.Fprintln(w, v); err != nil {
				return err
			}
		}
	case KindRect:
		for _, v := range r.rects {
			if _, err := fmt.Fprintf(w, "%g %g %g %g\n", v.MinX, v.MinY, v.MaxX, v.MaxY); err != nil {
				return err
			}
		}
	}
	return nil
}
