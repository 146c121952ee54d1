package obs

import (
	"bytes"
	"strings"
	"testing"
)

// drive pushes one event of 19 kinds through the recorder.
func drive(r *FlightRecorder) {
	r.OnEvent(Event{Kind: Arrival, T: 1, Task: 0})
	r.OnEvent(Event{Kind: Dispatch, T: 1, Task: 0, Server: 2, Start: 3, End: 5})
	r.OnEvent(Event{Kind: Complete, T: 5, Task: 0, Server: 2, Release: 1, Proc: 2})
	r.OnEvent(Event{Kind: Drop, T: 6, Task: 1, Release: 0})
	r.OnEvent(Event{Kind: Retry, T: 7, Task: 2, Attempt: 1})
	r.OnEvent(Event{Kind: Failover, T: 8, Server: 3, Lost: 2})
	r.OnEvent(Event{Kind: Reject, T: 9, Task: 4, Reason: "queue-bound"})
	r.OnEvent(Event{Kind: Shed, T: 10, Task: 5, Server: 1, Release: 2, Reason: "watermark"})
	r.OnEvent(Event{Kind: Eject, T: 11, Server: 2})
	r.OnEvent(Event{Kind: Readmit, T: 12, Server: 2})
	r.OnEvent(Event{Kind: Brownout, T: 13, Active: true})
	r.OnEvent(Event{Kind: ScaleUp, T: 14, Server: 6, Ready: 15})
	r.OnEvent(Event{Kind: Join, T: 15, Server: 6, Members: 4})
	r.OnEvent(Event{Kind: ScaleDown, T: 16, Server: 1, Members: 3, Handoffs: 2})
	r.OnEvent(Event{Kind: Handoff, T: 16, Task: 7, Server: 1})
	r.OnEvent(Event{Kind: Hedge, T: 16.5, Task: 8, Server: 3, Start: 17, End: 19, From: 0})
	r.OnEvent(Event{Kind: HedgeWin, T: 16.75, Task: 8, Server: 3, Copy: true})
	r.OnEvent(Event{Kind: HedgeCancel, T: 16.75, Task: 8, Server: 0, Started: true})
	r.OnEvent(Event{Kind: Done, T: 17})
}

func TestFlightRecorderRingWrap(t *testing.T) {
	r := NewFlightRecorder(8)
	for i := 0; i < 20; i++ {
		r.OnEvent(Event{Kind: Arrival, T: float64(i), Task: i})
	}
	if r.Len() != 8 || r.Dropped() != 12 {
		t.Fatalf("Len=%d Dropped=%d, want 8/12", r.Len(), r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("Events() returned %d", len(evs))
	}
	for i, ev := range evs {
		if want := 12 + i; ev.Task != want || float64(ev.T) != float64(want) {
			t.Fatalf("events[%d] = task %d t=%v, want task %d (oldest-first after wrap)",
				i, ev.Task, ev.T, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 || len(r.Events()) != 0 {
		t.Fatalf("Reset left Len=%d Dropped=%d", r.Len(), r.Dropped())
	}
}

func TestFlightRecorderDefaultSize(t *testing.T) {
	r := NewFlightRecorder(0)
	for i := 0; i < DefaultFlightSize+5; i++ {
		r.OnEvent(Event{Kind: Arrival, T: 0, Task: i})
	}
	if r.Len() != DefaultFlightSize || r.Dropped() != 5 {
		t.Fatalf("Len=%d Dropped=%d", r.Len(), r.Dropped())
	}
}

func TestFlightRecorderAllKindsRoundTrip(t *testing.T) {
	r := NewFlightRecorder(64)
	drive(r)
	if r.Len() != 19 {
		t.Fatalf("recorded %d events, want 19", r.Len())
	}
	want := []string{"arrival", "dispatch", "complete", "drop", "retry", "failover",
		"reject", "shed", "eject", "readmit", "brownout",
		"scale-up", "join", "scale-down", "handoff",
		"hedge", "hedge-win", "hedge-cancel", "done"}
	for i, ev := range r.Events() {
		if ev.Kind.String() != want[i] {
			t.Fatalf("events[%d].Kind.String() = %q, want %q", i, ev.Kind.String(), want[i])
		}
	}

	var dump bytes.Buffer
	if err := r.WriteJSONL(&dump); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(dump.String(), "NaN") {
		t.Fatalf("NaN leaked into the dump:\n%s", dump.String())
	}
	back, err := ReadFlightEvents(bytes.NewReader(dump.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// NaN sentinels defeat ==; compare through the canonical serialized form.
	var dump2 bytes.Buffer
	if err := WriteFlightEvents(&dump2, back); err != nil {
		t.Fatal(err)
	}
	if dump.String() != dump2.String() {
		t.Fatalf("round trip changed the dump:\n--- wrote\n%s--- read back\n%s",
			dump.String(), dump2.String())
	}
}

func TestFlightRecorderTaskEvents(t *testing.T) {
	r := NewFlightRecorder(64)
	drive(r)
	evs := r.TaskEvents(0)
	if len(evs) != 3 || evs[0].Kind.String() != "arrival" || evs[1].Kind.String() != "dispatch" || evs[2].Kind.String() != "complete" {
		t.Fatalf("task 0 events = %+v", evs)
	}
	// Server-only events (eject, failover) name no task and must not bleed
	// into any task's history.
	for _, ev := range r.TaskEvents(3) {
		if ev.Kind.String() == "failover" {
			t.Fatalf("failover (server event) attributed to task 3: %+v", ev)
		}
	}
	if got := r.TaskEvents(7); len(got) != 1 || got[0].Kind.String() != "handoff" {
		t.Fatalf("task 7 events = %+v", got)
	}
}

func TestReadFlightEventsErrors(t *testing.T) {
	if _, err := ReadFlightEvents(strings.NewReader(`{"t":1}` + "\n")); err == nil {
		t.Error("missing event kind not rejected")
	}
	if _, err := ReadFlightEvents(strings.NewReader("{broken\n")); err == nil {
		t.Error("malformed JSON not rejected")
	}
	evs, err := ReadFlightEvents(strings.NewReader("\n\n"))
	if err != nil || len(evs) != 0 {
		t.Errorf("blank lines: evs=%v err=%v", evs, err)
	}
}
