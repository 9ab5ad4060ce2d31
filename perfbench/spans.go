package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Span is one timed interval of the traced run. Spans of one request
// share Req; Parent is the ID of the span that caused this one, -1 for
// a root. Times are offsets from the trace's origin.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanLog holds spans in memory until the run ends. It is filled by one
// goroutine at a time (phases record into per-request slots and are
// appended after they finish), so it needs no lock.
type spanLog struct {
	origin time.Time
	spans  []Span
}

func newSpanLog(origin time.Time) *spanLog { return &spanLog{origin: origin} }

// add records a span from wall-clock times and returns its ID.
func (l *spanLog) add(name string, req, parent int, start, end time.Time) int {
	return l.addOffsets(name, req, parent, start.Sub(l.origin), end.Sub(l.origin))
}

func (l *spanLog) addOffsets(name string, req, parent int, start, end time.Duration) int {
	id := len(l.spans)
	l.spans = append(l.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
// Children are clipped to the parent, and overlapping children are
// counted once, so a self time is never negative.
func selfTimes(spans []Span) []time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		dur := s.End - s.Start
		if dur < 0 {
			dur = 0
		}
		out[i] = dur - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the spans.
func covered(lo, hi time.Duration, spans []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// chromeEvent is one Chrome trace-event entry ("X" = complete event),
// the shape internal/trace writes, so the same viewers open both.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as {"traceEvents": [...]}: one trace
// thread per request, with id, parent and self time in each event's args.
func writeChrome(w io.Writer, spans []Span, meta map[string]string) error {
	self := selfTimes(spans)
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: "perfbench", Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Req + 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req, "self_us": float64(self[i]) / 1e3},
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent     `json:"traceEvents"`
		Metadata    map[string]string `json:"metadata"`
	}{events, meta})
}
