package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestChromeEventsNestingAndTracks(t *testing.T) {
	// A root with a nested child share a track; a sibling overlapping the
	// root in time must fan out to its own.
	recs := []SpanRecord{
		{ID: 1, Parent: 0, Name: "solve", StartNs: 0, DurNs: 10_000},
		{ID: 2, Parent: 1, Name: "component", StartNs: 1_000, DurNs: 2_000},
		{ID: 3, Parent: 1, Name: "component", StartNs: 1_500, DurNs: 2_000}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "component", StartNs: 4_000, DurNs: 1_000}, // fits back on track 0
	}
	evs := chromeEvents(recs)
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Tid != 0 || evs[1].Tid != 0 {
		t.Fatalf("root and first child tracks = %d,%d, want 0,0", evs[0].Tid, evs[1].Tid)
	}
	if evs[2].Tid == evs[1].Tid {
		t.Fatalf("overlapping siblings share track %d", evs[2].Tid)
	}
	if evs[3].Tid != 0 {
		t.Fatalf("non-overlapping child track = %d, want 0 (parent's)", evs[3].Tid)
	}
	if evs[1].Ts != 1.0 || evs[1].Dur != 2.0 {
		t.Fatalf("ts/dur = %v/%v µs, want 1/2", evs[1].Ts, evs[1].Dur)
	}
	if evs[2].Args["id"] != 3 || evs[2].Args["parent"] != 1 {
		t.Fatalf("args = %v, want id/parent preserved", evs[2].Args)
	}
	if evs[0].Ph != "X" || evs[0].Pid != 1 {
		t.Fatalf("event shape = %+v", evs[0])
	}
}

func TestChromeEventsUnendedSpanHoldsTrack(t *testing.T) {
	recs := []SpanRecord{
		{ID: 1, Name: "stuck", StartNs: 0, DurNs: -1},
		{ID: 2, Name: "later", StartNs: 5_000, DurNs: 1_000},
	}
	evs := chromeEvents(recs)
	if evs[0].Dur != 0 {
		t.Fatalf("unended span dur = %v, want 0", evs[0].Dur)
	}
	// The unended span never closes its interval, so the later span still
	// nests under it — same track, proper nesting preserved.
	if evs[1].Tid != 0 {
		t.Fatalf("span after an unended one got track %d, want 0 (nested under the open span)", evs[1].Tid)
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
