package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"statefulentities.dev/stateflow/internal/obs"
)

// spanLog records the benchmark's own real-time spans around the public
// calls it makes into each layer. A nil *spanLog records nothing, so the
// untraced runs pay only a nil check.
type spanLog struct {
	epoch time.Time
	open  time.Time
	spans []realSpan
}

type realSpan struct {
	name       string
	start, dur time.Duration
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// do runs fn inside a span.
func (l *spanLog) do(name string, fn func()) {
	if l == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	l.spans = append(l.spans, realSpan{name: name, start: start.Sub(l.epoch), dur: time.Since(start)})
}

// begin and end bracket a span whose name is known only at its end.
func (l *spanLog) begin() {
	if l != nil && l.open.IsZero() {
		l.open = time.Now()
	}
}

func (l *spanLog) end(name string) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, realSpan{name: name, start: l.open.Sub(l.epoch), dur: time.Since(l.open)})
	l.open = time.Time{}
}

// chromeEvent is one event of the Chrome trace-event format.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// parseTrace reads back the Chrome trace-event JSON an obs.Tracer wrote:
// the tracer exposes its spans only through that export.
func parseTrace(tr *obs.Tracer) ([]chromeEvent, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("parse trace: %w", err)
	}
	return doc.TraceEvents, nil
}

// writeTrace writes one Chrome trace-event file holding the cluster's
// virtual-time spans (process 1) and the benchmark's real-time spans
// (process 2). Open it in Perfetto or chrome://tracing.
func writeTrace(path string, virtual []chromeEvent, real *spanLog) error {
	events := make([]chromeEvent, 0, len(virtual)+len(real.spans)+4)
	meta := func(pid int, name string) chromeEvent {
		return chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]string{"name": name}}
	}
	events = append(events, meta(1, "cluster (virtual time)"), meta(2, "benchmark (real time)"))
	events = append(events, virtual...)
	for _, s := range real.spans {
		events = append(events, chromeEvent{
			Name: s.name, Cat: "bench", Ph: "X", Pid: 2, Tid: 1,
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
		})
	}
	buf, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
