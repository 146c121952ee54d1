package obs

import (
	"bufio"
	"fmt"
	"io"
)

// DefaultFlightSize is the ring capacity a FlightRecorder gets when
// constructed with size ≤ 0.
const DefaultFlightSize = 4096

// FlightRecorder is a Probe keeping the last N events of a run in a
// fixed-size ring — the always-on crash recorder. It stores each Event with
// the fields its kind does not carry at their absent values (−1 / NaN).
// When a soak trial fails or an audit violation names a task, the ring
// holds the causal context without anyone having planned to trace that run;
// internal/chaos dumps it next to the shrunk repro and internal/audit
// attaches per-task evidence to its report.
//
// A FlightRecorder is not safe for concurrent use; attach one per run.
type FlightRecorder struct {
	buf   []Event
	total int // events ever appended; ring start is total - len(buf)
}

// NewFlightRecorder returns a recorder keeping the last size events
// (DefaultFlightSize when size ≤ 0).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	return &FlightRecorder{buf: make([]Event, 0, size)}
}

// OnEvent implements Probe.
func (r *FlightRecorder) OnEvent(ev Event) {
	ev = ev.fill()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.total%cap(r.buf)] = ev
	}
	r.total++
}

// Len returns the number of events currently held (≤ the ring capacity).
func (r *FlightRecorder) Len() int { return len(r.buf) }

// Dropped returns how many older events the ring has overwritten.
func (r *FlightRecorder) Dropped() int { return r.total - len(r.buf) }

// Reset empties the ring for reuse across runs.
func (r *FlightRecorder) Reset() {
	r.buf = r.buf[:0]
	r.total = 0
}

// Events returns the held events oldest-first (a copy).
func (r *FlightRecorder) Events() []Event {
	out := make([]Event, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		copy(out, r.buf)
		return out
	}
	split := r.total % cap(r.buf) // oldest event's ring slot
	n := copy(out, r.buf[split:])
	copy(out[n:], r.buf[:split])
	return out
}

// TaskEvents returns the held events naming the task, oldest-first.
func (r *FlightRecorder) TaskEvents(task int) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if ev.Task == task {
			out = append(out, ev)
		}
	}
	return out
}

// WriteJSONL writes the held events oldest-first, one JSON object per line
// with only the fields each kind carries — the flight-recorder dump format
// read back by ReadFlightEvents.
func (r *FlightRecorder) WriteJSONL(w io.Writer) error {
	return WriteFlightEvents(w, r.Events())
}

// WriteFlightEvents writes an event slice in the WriteJSONL dump format.
func WriteFlightEvents(w io.Writer, events []Event) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var line []byte
	for _, ev := range events {
		line = append(ev.appendJSON(line[:0]), '\n')
		if _, err := bw.Write(line); err != nil {
			return fmt.Errorf("obs: writing flight events: %w", err)
		}
	}
	return bw.Flush()
}

// ReadFlightEvents reads a WriteJSONL dump back. Fields a line omits decode
// to their absent values, and an unknown or missing kind is an error.
func ReadFlightEvents(rd io.Reader) ([]Event, error) {
	var out []Event
	err := readEvents(rd, func(ev Event) { out = append(out, ev) })
	if err != nil {
		return nil, err
	}
	return out, nil
}
