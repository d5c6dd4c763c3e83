// Package bench defines the experiment registry behind EXPERIMENTS.md:
// one experiment per paper claim (E1–E19), each emitting a table that
// cmd/experiments renders. The paper is a theory paper — its "figures"
// are Fig 1 (the G_n family and its line graph) and Fig 2 (the diamond
// gadget) and its results are lemmas and theorems — so each experiment
// verifies one claim empirically: exact solvers referee on small
// instances, bound checks take over at scale.
package bench

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is an experiment result: a titled grid of strings.
type Table struct {
	ID     string
	Title  string
	Claim  string
	Header []string
	Rows   [][]string
	// Notes are printed under the table.
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case bool:
			if v {
				row[i] = "yes"
			} else {
				row[i] = "no"
			}
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.Claim != "" {
		if _, err := fmt.Fprintf(w, "claim: %s\n", t.Claim); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, strings.Join(rule, "  ")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.Claim != "" {
		if _, err := fmt.Fprintf(w, "*Claim:* %s\n\n", t.Claim); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | ")); err != nil {
		return err
	}
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(rule, " | ")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | ")); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "\n*Note:* %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV renders the table as comma-separated values (header first). Cells
// containing commas or quotes are quoted.
func (t *Table) CSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// pad right-fills s to w columns. Width is counted in runes, not bytes —
// headers like "π̂ emitted" are multi-byte but single-column per rune, and
// byte-based padding skewed every column after them.
func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// Experiment is one registered paper-claim verification.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

// All returns the experiment registry in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "pebbling cost bounds (Lemma 2.1/2.3, Cor 2.1)", E1Bounds},
		{"E2", "additivity over disjoint union (Lemma 2.2)", E2Additivity},
		{"E3", "matchings cost 2m (Lemma 2.4)", E3Matching},
		{"E4", "perfect pebbling = Hamiltonian line graph (Prop 2.1/2.2)", E4LineGraph},
		{"E5", "1.25 approximation (Thm 3.1 / Lemma 3.1)", E5Approx},
		{"E6", "equijoins pebble perfectly in linear time (Thm 3.2/4.1)", E6Equijoin},
		{"E7", "the hard family G_n (Thm 3.3, Fig 1)", E7HardFamily},
		{"E8", "set-containment universality (Lemma 3.3)", E8Universality},
		{"E9", "spatial realization of G_n (Lemma 3.4)", E9Spatial},
		{"E10", "exponential vs linear solving (Thm 4.2)", E10Hardness},
		{"E11", "diamond L-reduction TSP-4 to TSP-3 (Thm 4.3, Fig 2)", E11Diamond},
		{"E12", "incidence L-reduction TSP-3 to PEBBLE (Thm 4.4)", E12Incidence},
		{"E13", "diamond gadget properties (Fig 2)", E13Gadget},
		{"E14", "solver approximation ratios (§4 approximability)", E14Ratios},
		{"E15", "pebbling cost of real join algorithms (§1/§5)", E15Algorithms},
		{"E16", "partitioned-join mapping problem (§5 open problem)", E16Partition},
		{"E17", "page-fetch scheduling ([6], §2 related work)", E17Pages},
		{"E18", "the k-pebble extension (model generalization)", E18KPebbles},
		{"E19", "ablation: twin elimination in Thm 3.1 (design choice)", E19Ablation},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
