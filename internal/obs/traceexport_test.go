package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestChromeEventsNestingAndTracks(t *testing.T) {
	// One track holds every span: a root, its nested children, and a
	// later root that never ended.
	recs := []SpanRecord{
		{ID: 1, Parent: 0, Name: "solve", StartNs: 0, DurNs: 10_000},
		{ID: 2, Parent: 1, Name: "component", StartNs: 1_000, DurNs: 2_000},
		{ID: 3, Parent: 1, Name: "component", StartNs: 4_000, DurNs: 1_000, Attrs: map[string]int64{"edges": 7}},
		{ID: 4, Parent: 0, Name: "stuck", StartNs: 12_000, DurNs: -1},
	}
	evs := chromeEvents(recs)
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Ph != "X" || ev.Pid != 1 || ev.Tid != 0 || ev.Name != recs[i].Name {
			t.Fatalf("event %d shape = %+v", i, ev)
		}
	}
	if evs[1].Ts != 1.0 || evs[1].Dur != 2.0 {
		t.Fatalf("ts/dur = %v/%v µs, want 1/2", evs[1].Ts, evs[1].Dur)
	}
	if a := evs[2].Args; len(a) != 3 || a["id"] != 3 || a["parent"] != 1 || a["edges"] != 7 {
		t.Fatalf("args = %v, want id 3, parent 1, edges 7", a)
	}
	if evs[3].Ts != 12.0 || evs[3].Dur != 0 {
		t.Fatalf("unended span ts/dur = %v/%v µs, want 12/0", evs[3].Ts, evs[3].Dur)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("solve")
	root.Start("child").End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" || len(doc.TraceEvents) != 2 {
		t.Fatalf("doc = %+v", doc)
	}

	var nilTracer *Tracer
	buf.Reset()
	if err := nilTracer.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil tracer: %v", err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("nil tracer events = %+v", doc.TraceEvents)
	}
}
