package obs

// Chrome trace_event export. Serializes a span forest as the JSON object
// format chrome://tracing and Perfetto load directly: one complete ("X")
// event per span on one track (tid 0), timestamps in microseconds.

import (
	"encoding/json"
	"fmt"
	"io"
)

// ChromeEvent is one trace_event entry. Args carries the span's id,
// parent id, and integer attributes, so the span tree is fully
// recoverable from the Chrome export (cmd/obsreport leans on that).
type ChromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`  // microseconds since trace start
	Dur  float64          `json:"dur"` // microseconds
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// ChromeTrace is the top-level trace_event JSON object.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeEvents converts a span forest (as produced by Tracer.Records:
// ascending start times, parents before children) into trace_event
// entries, all on track 0. A scope's spans come from the one goroutine
// that runs its solve, so they always nest; an unended span gets dur 0.
func chromeEvents(recs []SpanRecord) []ChromeEvent {
	events := make([]ChromeEvent, 0, len(recs))
	for _, r := range recs {
		args := make(map[string]int64, len(r.Attrs)+2)
		args["id"] = int64(r.ID)
		args["parent"] = int64(r.Parent)
		for k, v := range r.Attrs {
			args[k] = v
		}
		events = append(events, ChromeEvent{
			Name: r.Name,
			Ph:   "X",
			Ts:   float64(r.StartNs) / 1e3,
			Dur:  float64(max(r.DurNs, 0)) / 1e3,
			Pid:  1,
			Args: args,
		})
	}
	return events
}

// WriteChromeTrace writes recs as an indented Chrome trace_event JSON
// document.
func WriteChromeTrace(w io.Writer, recs []SpanRecord) error {
	doc := ChromeTrace{TraceEvents: chromeEvents(recs), DisplayTimeUnit: "ns"}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal chrome trace: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteChromeTrace writes the tracer's current spans as Chrome
// trace_event JSON. Nil-safe: a nil tracer writes an empty trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, t.Records())
}
