package obs

import (
	"bufio"
	"io"
	"sort"

	"flowsched/internal/core"
	"flowsched/internal/trace"
)

// JSONLSink is a Probe that writes one JSON object per event, newline
// delimited, through a buffered writer — the structured event log for
// offline analysis. Every kind gets one line keyed by "ev", with "t" and
// then the fields the kind carries (see Kind), in this order:
//
//	{"ev":"arrival","t":<release>,"task":<id>}
//	{"ev":"dispatch","t":<at>,"task":<id>,"server":<j>,"start":<s>,"end":<e>}
//	{"ev":"complete","t":<end>,"task":<id>,"server":<j>,"release":<r>,"proc":<p>}
//	{"ev":"retry","t":<at>,"task":<id>,"attempt":<a>}
//	{"ev":"drop","t":<at>,"task":<id>,"release":<r>}
//	{"ev":"failover","t":<at>,"server":<j>,"lost":<n>}
//	{"ev":"done","t":<makespan>}
//	{"ev":"reject","t":<at>,"task":<id>,"reason":<s>}
//	{"ev":"shed","t":<at>,"task":<id>,"server":<j>,"release":<r>,"reason":<s>}
//	{"ev":"eject","t":<at>,"server":<j>}
//	{"ev":"readmit","t":<at>,"server":<j>}
//	{"ev":"brownout","t":<at>,"active":<b>}
//	{"ev":"scale-up","t":<at>,"server":<j>,"ready":<r>}
//	{"ev":"join","t":<at>,"server":<j>,"members":<n>}
//	{"ev":"scale-down","t":<at>,"server":<j>,"members":<n>,"handoffs":<h>}
//	{"ev":"handoff","t":<at>,"task":<id>,"server":<from>}
//	{"ev":"hedge","t":<at>,"task":<id>,"server":<to>,"start":<s>,"end":<e>,"from":<j>}
//	{"ev":"hedge-win","t":<at>,"task":<id>,"server":<j>,"copy":<b>}
//	{"ev":"hedge-cancel","t":<at>,"task":<id>,"server":<j>,"started":<b>}
//	{"ev":"breaker-open","t":<at>,"server":<j>}
//	{"ev":"breaker-close","t":<at>,"server":<j>}
//	{"ev":"breaker-probe","t":<at>,"task":<id>,"server":<j>}
//	{"ev":"retry-budget-drop","t":<at>,"task":<id>,"attempt":<a>}
//
// Times are written with Go's shortest round-trip float encoding, so a
// replay through ReplayTrace reproduces the exact instants; non-finite
// instants (the engine's deliberate NaN sentinels) encode as null instead of
// aborting the whole log write (core.NullTime). Errors are
// sticky: the first write error is retained and reported by Flush/Err, and
// subsequent events are dropped.
type JSONLSink struct {
	w    *bufio.Writer
	line []byte
	err  error
}

// NewJSONLSink returns a sink writing to w. Call Flush (or check Err) when
// the run is done; the sink buffers aggressively.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 1<<16)}
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error { return s.err }

// Flush drains the buffer and returns the first error seen.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// OnEvent implements Probe. The done event also flushes the buffer.
func (s *JSONLSink) OnEvent(ev Event) {
	if s.err != nil {
		return
	}
	s.line = append(ev.appendJSON(s.line[:0]), '\n')
	_, s.err = s.w.Write(s.line)
	if ev.Kind == Done {
		s.Flush()
	}
}

// ReplayTrace reads a JSONL event stream and reconstructs the trace of the
// run: one arrival, start and completion per completed task, ordered
// exactly like trace.FromSchedule (time, then completion < arrival < start,
// then task ID). For a fault-free run the result is identical to
// trace.FromSchedule on the run's schedule (property-tested in
// internal/sim); under faults and overload control the last dispatch
// attempt provides the start, and dropped, rejected and shed tasks (no
// completion) are omitted. A completion that moved off its dispatch
// forecast — its queue was re-timed behind a watermark shed — starts at
// end − proc. Every kind in the table is accepted; an unknown kind is an
// error.
func ReplayTrace(r io.Reader) ([]trace.Event, error) {
	type slot struct {
		arrival, start, end    core.Time
		forecast               core.Time // the last dispatch's end
		server                 int
		hasArr, hasDis, hasCmp bool
	}
	slots := map[int]*slot{}
	at := func(task int) *slot {
		s, ok := slots[task]
		if !ok {
			s = &slot{}
			slots[task] = s
		}
		return s
	}
	err := readEvents(r, func(ev Event) {
		switch ev.Kind {
		case Arrival:
			s := at(ev.Task)
			s.arrival, s.hasArr = ev.T, true
		case Dispatch:
			s := at(ev.Task)
			s.start, s.forecast, s.server, s.hasDis = ev.Start, ev.End, ev.Server, true
		case Complete:
			s := at(ev.Task)
			s.end, s.server, s.hasCmp = ev.T, ev.Server, true
			if ev.T != s.forecast {
				s.start = ev.T - ev.Proc
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var events []trace.Event
	for task, s := range slots {
		if !s.hasArr || !s.hasDis || !s.hasCmp {
			continue // dropped or truncated: not a completed task
		}
		events = append(events,
			trace.Event{Time: s.arrival, Kind: trace.Arrival, Task: task, Machine: -1},
			trace.Event{Time: s.start, Kind: trace.Start, Task: task, Machine: s.server},
			trace.Event{Time: s.end, Kind: trace.Completion, Task: task, Machine: s.server},
		)
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].Time != events[b].Time {
			return events[a].Time < events[b].Time
		}
		if events[a].Kind != events[b].Kind {
			return events[a].Kind < events[b].Kind
		}
		return events[a].Task < events[b].Task
	})
	return events, nil
}
