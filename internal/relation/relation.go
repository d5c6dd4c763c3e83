// Package relation models the paper's single-column relations (§2): a
// named multiset of values over one of the attribute domains the paper
// studies — numeric/string domains for equijoins (§3.1), set-valued
// domains for containment joins (§3.2) and spatial domains for overlap
// joins (§3.3). Values are a tagged union so relations can round-trip
// through the CLI text format.
package relation

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"joinpebble/internal/sets"
	"joinpebble/internal/spatial"
)

// Kind identifies the attribute domain of a column.
type Kind int

// Attribute domains.
const (
	KindInt Kind = iota
	KindString
	KindSet
	KindRect
)

// String names the kind as used in the text format.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindSet:
		return "set"
	case KindRect:
		return "rect"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind inverts Kind.String.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "int":
		return KindInt, nil
	case "string":
		return KindString, nil
	case "set":
		return KindSet, nil
	case "rect":
		return KindRect, nil
	}
	return 0, fmt.Errorf("relation: unknown kind %q", s)
}

// Value is one attribute value; exactly the field matching the owning
// relation's Kind is meaningful.
type Value struct {
	Int  int64
	Str  string
	Set  sets.Set
	Rect spatial.Rect
}

// Relation is a named single-column multiset of values of one Kind.
type Relation struct {
	Name   string
	Kind   Kind
	Tuples []Value
}

// New returns an empty relation.
func New(name string, kind Kind) *Relation {
	return &Relation{Name: name, Kind: kind}
}

// Len returns the number of tuples (multiset cardinality).
func (r *Relation) Len() int { return len(r.Tuples) }

// AppendInt adds an integer tuple; panics if the relation is not KindInt.
func (r *Relation) AppendInt(v int64) {
	r.mustKind(KindInt)
	r.Tuples = append(r.Tuples, Value{Int: v})
}

// AppendString adds a string tuple.
func (r *Relation) AppendString(v string) {
	r.mustKind(KindString)
	r.Tuples = append(r.Tuples, Value{Str: v})
}

// AppendSet adds a set tuple.
func (r *Relation) AppendSet(v sets.Set) {
	r.mustKind(KindSet)
	r.Tuples = append(r.Tuples, Value{Set: v})
}

// AppendRect adds a rectangle tuple.
func (r *Relation) AppendRect(v spatial.Rect) {
	r.mustKind(KindRect)
	r.Tuples = append(r.Tuples, Value{Rect: v})
}

func (r *Relation) mustKind(k Kind) {
	if r.Kind != k {
		panic(fmt.Sprintf("relation: %s has kind %v, not %v", r.Name, r.Kind, k))
	}
}

// Ints returns the integer column; panics unless KindInt.
func (r *Relation) Ints() []int64 {
	r.mustKind(KindInt)
	out := make([]int64, len(r.Tuples))
	for i, t := range r.Tuples {
		out[i] = t.Int
	}
	return out
}

// Strings returns the string column; panics unless KindString.
func (r *Relation) Strings() []string {
	r.mustKind(KindString)
	out := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		out[i] = t.Str
	}
	return out
}

// Sets returns the set column; panics unless KindSet.
func (r *Relation) Sets() []sets.Set {
	r.mustKind(KindSet)
	out := make([]sets.Set, len(r.Tuples))
	for i, t := range r.Tuples {
		out[i] = t.Set
	}
	return out
}

// Rects returns the rectangle column; panics unless KindRect.
func (r *Relation) Rects() []spatial.Rect {
	r.mustKind(KindRect)
	out := make([]spatial.Rect, len(r.Tuples))
	for i, t := range r.Tuples {
		out[i] = t.Rect
	}
	return out
}

// FromInts builds an int relation from a slice.
func FromInts(name string, vs []int64) *Relation {
	r := &Relation{Name: name, Kind: KindInt, Tuples: make([]Value, len(vs))}
	for i, v := range vs {
		r.Tuples[i].Int = v
	}
	return r
}

// FromSets builds a set relation from a slice.
func FromSets(name string, vs []sets.Set) *Relation {
	r := &Relation{Name: name, Kind: KindSet, Tuples: make([]Value, len(vs))}
	for i, v := range vs {
		r.Tuples[i].Set = v
	}
	return r
}

// FromRects builds a rect relation from a slice.
func FromRects(name string, vs []spatial.Rect) *Relation {
	r := &Relation{Name: name, Kind: KindRect, Tuples: make([]Value, len(vs))}
	for i, v := range vs {
		r.Tuples[i].Rect = v
	}
	return r
}

// formatValue renders a value in the text format.
func (r *Relation) formatValue(v Value) string {
	switch r.Kind {
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindString:
		return strconv.Quote(v.Str)
	case KindSet:
		return v.Set.String()
	case KindRect:
		return fmt.Sprintf("%g %g %g %g", v.Rect.MinX, v.Rect.MinY, v.Rect.MaxX, v.Rect.MaxY)
	}
	panic("relation: unknown kind")
}

// Write serializes the relation as:
//
//	relation <name> <kind>
//	<value>        (one line per tuple)
func (r *Relation) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "relation %s %s\n", r.Name, r.Kind); err != nil {
		return err
	}
	for _, t := range r.Tuples {
		if _, err := fmt.Fprintln(w, r.formatValue(t)); err != nil {
			return err
		}
	}
	return nil
}

// Read parses the Write format. Blank lines and '#' comments are skipped.
func Read(rd io.Reader) (*Relation, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var rel *Relation
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if rel == nil {
			fields := strings.Fields(text)
			if len(fields) != 3 || fields[0] != "relation" {
				return nil, fmt.Errorf("relation: line %d: want 'relation <name> <kind>'", line)
			}
			kind, err := ParseKind(fields[2])
			if err != nil {
				return nil, fmt.Errorf("relation: line %d: %w", line, err)
			}
			rel = New(fields[1], kind)
			continue
		}
		if err := rel.appendText(text); err != nil {
			return nil, fmt.Errorf("relation: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rel == nil {
		return nil, fmt.Errorf("relation: empty input")
	}
	return rel, nil
}

func (r *Relation) appendText(text string) error {
	switch r.Kind {
	case KindInt:
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return err
		}
		r.AppendInt(v)
	case KindString:
		v, err := strconv.Unquote(text)
		if err != nil {
			return err
		}
		r.AppendString(v)
	case KindSet:
		v, err := sets.Parse(text)
		if err != nil {
			return err
		}
		r.AppendSet(v)
	case KindRect:
		var x1, y1, x2, y2 float64
		if _, err := fmt.Sscanf(text, "%g %g %g %g", &x1, &y1, &x2, &y2); err != nil {
			return err
		}
		r.AppendRect(spatial.NewRect(x1, y1, x2, y2))
	default:
		return fmt.Errorf("unknown kind %v", r.Kind)
	}
	return nil
}
