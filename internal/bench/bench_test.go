package bench

import (
	"strings"
	"sync"
	"testing"
)

// runCached memoizes experiment runs so the structural and verdict tests
// do not pay for each experiment twice.
var (
	cacheMu    sync.Mutex
	tableCache = map[string]*Table{}
	errCache   = map[string]error{}
)

func runCached(e Experiment) (*Table, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if tbl, ok := tableCache[e.ID]; ok {
		return tbl, errCache[e.ID]
	}
	tbl, err := e.Run()
	tableCache[e.ID] = tbl
	errCache[e.ID] = err
	return tbl, err
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-sized")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			table, err := runCached(e)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if table.ID != e.ID {
				t.Fatalf("table id %q for experiment %q", table.ID, e.ID)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for i, row := range table.Rows {
				if len(row) != len(table.Header) {
					t.Fatalf("%s row %d has %d cells, header has %d", e.ID, i, len(row), len(table.Header))
				}
			}
			var sb strings.Builder
			if err := table.Render(&sb); err != nil {
				t.Fatal(err)
			}
			if err := table.Markdown(&sb); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestExperimentClaimsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-sized")
	}
	// Spot-check the boolean verdict columns: every row that carries a
	// yes/no verdict must say yes.
	verdictColumn := map[string]string{
		"E1": "within",
		"E2": "additive",
		"E4": "= π−1",
		"E5": "within bound",
		"E6": "perfect",
		"E8": "round trip exact",
		"E9": "graph = G_n",
	}
	for _, e := range All() {
		col, ok := verdictColumn[e.ID]
		if !ok {
			continue
		}
		table, err := runCached(e)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		idx := -1
		for i, h := range table.Header {
			if h == col {
				idx = i
			}
		}
		if idx < 0 {
			t.Fatalf("%s: verdict column %q missing", e.ID, col)
		}
		for r, row := range table.Rows {
			if row[idx] != "yes" {
				t.Fatalf("%s row %d: verdict %q = %q", e.ID, r, col, row[idx])
			}
		}
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("E7"); !ok {
		t.Fatal("E7 must exist")
	}
	if _, ok := Find("E99"); ok {
		t.Fatal("E99 must not exist")
	}
}

func TestTableRendering(t *testing.T) {
	table := &Table{
		ID:     "T",
		Title:  "demo",
		Claim:  "c",
		Header: []string{"a", "bb"},
	}
	table.AddRow(1, true)
	table.AddRow("xyz", 2.5)
	var sb strings.Builder
	if err := table.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"T — demo", "claim: c", "xyz", "yes", "2.500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	if err := table.Markdown(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "| a | bb |") {
		t.Fatalf("markdown header missing:\n%s", sb.String())
	}
	// CSV quotes a cell holding a comma, a quote or a newline, and
	// doubles the quotes inside it.
	table.AddRow(`say "hi"`, "x,y")
	table.AddRow("two\nlines", "")
	sb.Reset()
	if err := table.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := `a,bb
1,yes
xyz,2.500
"say ""hi""","x,y"
"two
lines",
`
	if sb.String() != want {
		t.Fatalf("CSV output\n%q\nwant\n%q", sb.String(), want)
	}
}

func TestE13GadgetVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("gadget enumeration is integration-sized")
	}
	table, err := runCached(Experiment{ID: "E13", Run: E13Gadget})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]string{}
	for _, row := range table.Rows {
		byName[row[0]] = row[1]
	}
	if byName["corner endpoint pairs (want 6)"] != "6" {
		t.Fatalf("corner pairs: %v", byName)
	}
	if byName["rim-vertex endpoints (want 0)"] != "0" {
		t.Fatalf("rim endpoints: %v", byName)
	}
	if byName["max degree"] != "3" {
		t.Fatalf("max degree: %v", byName)
	}
}
