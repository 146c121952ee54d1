package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"flowsched/internal/core"
)

// Kind names one engine event. Every kind is one row of a single table that
// gives its JSON name, the Event fields it carries and its Prometheus
// counter; the codec and every sink in this package read that table.
type Kind uint8

// The event kinds, in Prometheus exposition order. Each comment names the
// fields the kind carries besides T.
const (
	// Arrival: Task is released at T.
	Arrival Kind = iota
	// Dispatch: the router assigns Task (or a failover re-dispatch) to
	// Server at T; the attempt occupies [Start, End) unless it is aborted.
	Dispatch
	// Complete: Task's completion at T on Server is final. Release and Proc
	// echo the task, so probes derive flow and stretch without state.
	Complete
	// Retry: Task, aborted by a crash, is rescheduled at T; Attempt counts
	// the dispatches so far (≥ 1).
	Retry
	// Drop: the retry policy gives up on Task (released at Release) at T.
	Drop
	// Failover: Server crashes at T, losing Lost queued-or-running requests
	// (they re-enter through Retry or Drop).
	Failover
	// Done: the run ends; T is the makespan. Fires exactly once, last.
	Done
	// Reject: admission control turns Task away at its arrival instant T,
	// for Reason.
	Reject
	// Shed: queued Task (released at Release) is abandoned at T for Reason,
	// by the watermark shedder (Server is its queue) or by deadline
	// enforcement at dispatch.
	Shed
	// Eject: the outlier ejector removes Server from routing.
	Eject
	// Readmit: ejected Server's cooldown expires.
	Readmit
	// Brownout: the SLO guard's brownout signal turns Active (or inactive).
	Brownout
	// ScaleUp: the membership controller commits to adding machine Server,
	// which accepts work from Ready (T + warm-up).
	ScaleUp
	// Join: machine Server finishes warming up; Members counts the
	// membership including it.
	Join
	// ScaleDown: machine Server drains out of the ring; Members counts the
	// membership without it and Handoffs the queued tasks handed off.
	ScaleDown
	// Handoff: queued Task moves off draining machine Server, just before
	// its re-dispatch.
	Handoff
	// Hedge: a speculative copy of Task goes to Server at T, scheduled to
	// occupy [Start, End); From is the primary's server, −1 when the
	// primary is not in flight.
	Hedge
	// HedgeWin: hedged Task completes; Server ran the winning attempt and
	// Copy reports whether the speculative copy won. Fires once per hedged
	// task that completes.
	HedgeWin
	// HedgeCancel: a losing attempt of Task on Server is abandoned at T.
	// Started reports whether it had entered service (a started loser
	// without cancel-mid-service runs on as duplicate work).
	HedgeCancel
	// BreakerOpen: Server's breaker trips open (a window of failures, or a
	// half-open probe failure).
	BreakerOpen
	// BreakerClose: a probe success closes Server's breaker.
	BreakerClose
	// BreakerProbe: a half-open dispatch of Task to Server registers as a
	// probe.
	BreakerProbe
	// RetryBudgetDrop: the retry budget refuses Task's retry after Attempt
	// attempts; the task takes the BudgetDropped disposition.
	RetryBudgetDrop

	// NumKinds is the number of event kinds.
	NumKinds
)

// field is one optional Event field; the bits are in JSON key order.
type field uint32

const (
	fTask field = 1 << iota
	fServer
	fStart
	fEnd
	fRelease
	fProc
	fReady
	fAttempt
	fLost
	fMembers
	fHandoffs
	fReason
	fActive
	fFrom
	fCopy
	fStarted
)

// kinds is the event table. prom is empty for kinds without a counter.
var kinds = [NumKinds]struct {
	name       string
	fields     field
	prom, help string
}{
	Arrival:         {"arrival", fTask, "flowsched_arrivals_total", "Requests released."},
	Dispatch:        {"dispatch", fTask | fServer | fStart | fEnd, "flowsched_dispatches_total", "Dispatch attempts (failover re-dispatches included)."},
	Complete:        {"complete", fTask | fServer | fRelease | fProc, "flowsched_completions_total", "Requests completed."},
	Retry:           {"retry", fTask | fAttempt, "flowsched_retries_total", "Failover re-dispatches scheduled after a crash."},
	Drop:            {"drop", fTask | fRelease, "flowsched_drops_total", "Requests dropped by the retry policy."},
	Failover:        {"failover", fServer | fLost, "flowsched_failovers_total", "Server crashes observed."},
	Done:            {"done", 0, "", ""},
	Reject:          {"reject", fTask | fReason, "flowsched_rejections_total", "Tasks rejected by admission control."},
	Shed:            {"shed", fTask | fServer | fRelease | fReason, "flowsched_sheds_total", "Tasks shed mid-run by overload control."},
	Eject:           {"eject", fServer, "flowsched_ejections_total", "Servers ejected by outlier detection."},
	Readmit:         {"readmit", fServer, "flowsched_readmissions_total", "Ejected servers re-admitted after cooldown."},
	Brownout:        {"brownout", fActive, "flowsched_brownouts_total", "Brownout signal rising edges."},
	ScaleUp:         {"scale-up", fServer | fReady, "flowsched_scale_ups_total", "Elastic scale-up decisions committed."},
	Join:            {"join", fServer | fMembers, "flowsched_joins_total", "Machines that finished warm-up and went active."},
	ScaleDown:       {"scale-down", fServer | fMembers | fHandoffs, "flowsched_scale_downs_total", "Machines drained out of the ring."},
	Handoff:         {"handoff", fTask | fServer, "flowsched_handoffs_total", "Queued tasks handed off from draining machines."},
	Hedge:           {"hedge", fTask | fServer | fStart | fEnd | fFrom, "flowsched_hedges_total", "Speculative hedge copies dispatched."},
	HedgeWin:        {"hedge-win", fTask | fServer | fCopy, "flowsched_hedge_wins_total", "Hedged tasks completed."},
	HedgeCancel:     {"hedge-cancel", fTask | fServer | fStarted, "flowsched_hedge_cancels_total", "Losing hedge attempts abandoned."},
	BreakerOpen:     {"breaker-open", fServer, "flowsched_breaker_opens_total", "Circuit breaker open episodes."},
	BreakerClose:    {"breaker-close", fServer, "flowsched_breaker_closes_total", "Circuit breakers closed by probe success."},
	BreakerProbe:    {"breaker-probe", fTask | fServer, "flowsched_breaker_probes_total", "Half-open breaker probe dispatches."},
	RetryBudgetDrop: {"retry-budget-drop", fTask | fAttempt, "flowsched_retry_budget_drops_total", "Retries refused by the retry budget."},
}

// String returns the kind's JSON name.
func (k Kind) String() string {
	if k < NumKinds {
		return kinds[k].name
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// UnmarshalText implements encoding.TextUnmarshaler: it accepts exactly the
// names in the kind table.
func (k *Kind) UnmarshalText(name []byte) error {
	for i := range kinds {
		if kinds[i].name == string(name) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("unknown event kind %q", name)
}

// Event is one engine event: the flat union of every kind's payload. An
// emitter sets Kind, T and the fields its kind carries (see the Kind
// constants); the FlightRecorder and the decoder set every other field to
// its absent value — −1 for ids and counts, NaN for instants — so a stored
// or decoded event never reads an absent field as task 0 or server 0.
//
// The JSON form, written by JSONLSink and FlightRecorder.WriteJSONL, is one
// object with "ev" (the kind's name), "t" and the kind's fields in the
// struct's order; non-finite instants are null (core.NullTime).
type Event struct {
	Kind     Kind      `json:"ev"`
	T        core.Time `json:"t"`
	Task     int       `json:"task"`
	Server   int       `json:"server"`
	Start    core.Time `json:"start"`
	End      core.Time `json:"end"`
	Release  core.Time `json:"release"`
	Proc     core.Time `json:"proc"`
	Ready    core.Time `json:"ready"`
	Attempt  int       `json:"attempt"`
	Lost     int       `json:"lost"`
	Members  int       `json:"members"`
	Handoffs int       `json:"handoffs"`
	Reason   string    `json:"reason"`
	Active   bool      `json:"active"`
	From     int       `json:"from"`
	Copy     bool      `json:"copy"`
	Started  bool      `json:"started"`
}

// fill returns e with every field its kind does not carry at its absent
// value.
func (e Event) fill() Event {
	f := kinds[e.Kind].fields
	for _, x := range [...]struct {
		bit field
		p   *int
	}{{fTask, &e.Task}, {fServer, &e.Server}, {fAttempt, &e.Attempt}, {fLost, &e.Lost},
		{fMembers, &e.Members}, {fHandoffs, &e.Handoffs}, {fFrom, &e.From}} {
		if f&x.bit == 0 {
			*x.p = -1
		}
	}
	for _, x := range [...]struct {
		bit field
		p   *core.Time
	}{{fStart, &e.Start}, {fEnd, &e.End}, {fRelease, &e.Release}, {fProc, &e.Proc}, {fReady, &e.Ready}} {
		if f&x.bit == 0 {
			*x.p = core.Time(math.NaN())
		}
	}
	for _, x := range [...]struct {
		bit field
		p   *bool
	}{{fActive, &e.Active}, {fCopy, &e.Copy}, {fStarted, &e.Started}} {
		if f&x.bit == 0 {
			*x.p = false
		}
	}
	if f&fReason == 0 {
		e.Reason = ""
	}
	return e
}

// appendJSON appends e's JSON object: "ev", "t", then the fields its kind
// carries, in the struct's order.
func (e Event) appendJSON(b []byte) []byte {
	k := kinds[e.Kind]
	b = append(append(append(b, `{"ev":"`...), k.name...), `","t":`...)
	b = core.AppendTimeJSON(b, e.T)
	key := func(bit field, name string) bool {
		if k.fields&bit == 0 {
			return false
		}
		b = append(append(append(b, `,"`...), name...), `":`...)
		return true
	}
	if key(fTask, "task") {
		b = strconv.AppendInt(b, int64(e.Task), 10)
	}
	if key(fServer, "server") {
		b = strconv.AppendInt(b, int64(e.Server), 10)
	}
	if key(fStart, "start") {
		b = core.AppendTimeJSON(b, e.Start)
	}
	if key(fEnd, "end") {
		b = core.AppendTimeJSON(b, e.End)
	}
	if key(fRelease, "release") {
		b = core.AppendTimeJSON(b, e.Release)
	}
	if key(fProc, "proc") {
		b = core.AppendTimeJSON(b, e.Proc)
	}
	if key(fReady, "ready") {
		b = core.AppendTimeJSON(b, e.Ready)
	}
	if key(fAttempt, "attempt") {
		b = strconv.AppendInt(b, int64(e.Attempt), 10)
	}
	if key(fLost, "lost") {
		b = strconv.AppendInt(b, int64(e.Lost), 10)
	}
	if key(fMembers, "members") {
		b = strconv.AppendInt(b, int64(e.Members), 10)
	}
	if key(fHandoffs, "handoffs") {
		b = strconv.AppendInt(b, int64(e.Handoffs), 10)
	}
	if key(fReason, "reason") {
		r, _ := json.Marshal(e.Reason) // a string always marshals
		b = append(b, r...)
	}
	if key(fActive, "active") {
		b = strconv.AppendBool(b, e.Active)
	}
	if key(fFrom, "from") {
		b = strconv.AppendInt(b, int64(e.From), 10)
	}
	if key(fCopy, "copy") {
		b = strconv.AppendBool(b, e.Copy)
	}
	if key(fStarted, "started") {
		b = strconv.AppendBool(b, e.Started)
	}
	return append(b, '}')
}

// MarshalJSON implements json.Marshaler with the event's line form.
func (e Event) MarshalJSON() ([]byte, error) {
	if e.Kind >= NumKinds {
		return nil, fmt.Errorf("obs: marshaling %v", e.Kind)
	}
	return e.appendJSON(nil), nil
}

// UnmarshalJSON implements json.Unmarshaler. Every field starts at its
// absent value, so keys the line omits (or writes as null) read as −1 or
// NaN; keys beyond the kind's own set are accepted.
func (e *Event) UnmarshalJSON(raw []byte) error {
	type plain Event // Event without its methods
	// Start from the absent values (done carries no field); NumKinds marks
	// a line that names no kind.
	blank := Event{Kind: Done, T: core.Time(math.NaN())}.fill()
	blank.Kind = NumKinds
	p := plain(blank)
	if err := json.Unmarshal(raw, &p); err != nil {
		return err
	}
	if p.Kind == NumKinds {
		return fmt.Errorf("missing event kind")
	}
	*e = Event(p)
	return nil
}

// readEvents decodes a JSON Lines event stream, skipping blank lines and
// calling visit on each event in order.
func readEvents(r io.Reader, visit func(Event)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev Event
		if err := ev.UnmarshalJSON(sc.Bytes()); err != nil {
			return fmt.Errorf("obs: events line %d: %w", line, err)
		}
		visit(ev)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: reading events: %w", err)
	}
	return nil
}
