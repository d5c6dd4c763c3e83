package obs

// Chrome trace_event export. Serializes a span forest as the JSON object
// format chrome://tracing and Perfetto load directly: one complete ("X")
// event per span, timestamps in microseconds. Spans that overlap in time
// without nesting (the solver's parallel component fan-out) are spread
// across tracks (tid values) greedily, keeping every track properly
// nested so the viewers render them as stacked lanes.

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

// chromeTrack is one tid lane during assignment: a stack of currently
// open (by end time) span intervals, always properly nested.
type chromeTrack struct {
	ends []int64 // open interval end times, outermost first
}

// fits reports whether [start, end) nests under the track's state at
// start, popping intervals that have already closed.
func (tr *chromeTrack) fits(start, end int64) bool {
	for len(tr.ends) > 0 && tr.ends[len(tr.ends)-1] <= start {
		tr.ends = tr.ends[:len(tr.ends)-1]
	}
	return len(tr.ends) == 0 || tr.ends[len(tr.ends)-1] >= end
}

// chromeEvents converts a span forest (as produced by Tracer.Records:
// ascending start times, parents before children) into trace_event
// entries. Track assignment is greedy and deterministic: a span prefers
// its parent's track, then the lowest track it nests into, else a new
// track — so sequential solves collapse onto tid 0 and parallel
// component spans fan out onto their own lanes.
func chromeEvents(recs []SpanRecord) []ChromeEvent {
	const never = int64(1) << 62          // unended spans hold their track open
	track := make(map[int]int, len(recs)) // span id -> tid
	var tracks []*chromeTrack
	events := make([]ChromeEvent, 0, len(recs))
	for _, r := range recs {
		start := r.StartNs
		end := never
		dur := int64(0)
		if r.DurNs >= 0 {
			dur = r.DurNs
			end = start + dur
		}
		tid := -1
		if r.Parent > 0 {
			if pt, ok := track[r.Parent]; ok && tracks[pt].fits(start, end) {
				tid = pt
			}
		}
		if tid < 0 {
			for i, tr := range tracks {
				if tr.fits(start, end) {
					tid = i
					break
				}
			}
		}
		if tid < 0 {
			tracks = append(tracks, &chromeTrack{})
			tid = len(tracks) - 1
		}
		tracks[tid].ends = append(tracks[tid].ends, end)
		track[r.ID] = tid

		args := make(map[string]int64, len(r.Attrs)+2)
		args["id"] = int64(r.ID)
		args["parent"] = int64(r.Parent)
		for k, v := range r.Attrs {
			args[k] = v
		}
		events = append(events, ChromeEvent{
			Name: r.Name,
			Ph:   "X",
			Ts:   float64(start) / 1e3,
			Dur:  float64(dur) / 1e3,
			Pid:  1,
			Tid:  tid,
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
