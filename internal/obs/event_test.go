package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// sampleEvent returns an event of kind k carrying a distinct value in every
// field the kind carries, and the absent value in every other field.
func sampleEvent(k Kind) Event {
	return Event{
		Kind: k, T: 10.5, Task: 3, Server: 2, Start: 11, End: 12.25,
		Release: 9, Proc: 1.25, Ready: 13, Attempt: 2, Lost: 4, Members: 5,
		Handoffs: 1, Reason: "queue-bound", Active: true, From: 1, Copy: true,
		Started: true,
	}.fill()
}

// sameEvent compares events field for field, NaN equal to NaN.
func sameEvent(a, b Event) bool { return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b) }

// TestEveryKindReachesEverySink sends one event of every kind in the table
// through a fan-out of all six sinks: the flight ring holds it as sent, its
// JSONL line decodes back to it and replays, and Counters counts it and
// exposes its row. Kind names are non-empty and unique.
func TestEveryKindReachesEverySink(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		name := k.String()
		if name == "" || seen[name] {
			t.Fatalf("kind %d has an empty or duplicate name %q", k, name)
		}
		seen[name] = true
		t.Run(name, func(t *testing.T) {
			c := &Counters{}
			rec := NewFlightRecorder(4)
			var buf bytes.Buffer
			sink := NewJSONLSink(&buf)
			s, err := NewSampler(4, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := sampleEvent(k)
			Multi(c, rec, sink, NewTracer(KeepAll()), s, NewHistogramProbe()).OnEvent(want)
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}

			if evs := rec.Events(); len(evs) != 1 || !sameEvent(evs[0], want) {
				t.Errorf("flight ring holds %+v, want %+v", evs, want)
			}
			line := buf.String()
			back, err := ReadFlightEvents(strings.NewReader(line))
			if err != nil || len(back) != 1 || !sameEvent(back[0], want) {
				t.Errorf("JSONL line %q decodes to %+v (%v), want %+v", line, back, err, want)
			}
			if _, err := ReplayTrace(strings.NewReader(line)); err != nil {
				t.Errorf("ReplayTrace rejects %q: %v", line, err)
			}

			if got := c.Count(k); got != 1 {
				t.Errorf("Counters counted %d, want 1", got)
			}
			var prom strings.Builder
			if err := c.WriteProm(&prom); err != nil {
				t.Fatal(err)
			}
			switch row := kinds[k].prom; {
			case row != "":
				if !strings.Contains(prom.String(), "\n"+row+" 1\n") {
					t.Errorf("exposition lacks %q:\n%s", row+" 1", prom.String())
				}
			case k != Done:
				t.Errorf("only done may lack a counter")
			}
		})
	}
}

// TestDecodeFillsAbsentFields pins the decoder's absent values: a line that
// omits a field (or writes a null instant) never reads as task 0 or server
// 0, and an unknown kind is an error.
func TestDecodeFillsAbsentFields(t *testing.T) {
	evs, err := ReadFlightEvents(strings.NewReader(`{"ev":"failover","t":2,"server":0,"lost":1,"start":null}` + "\n"))
	if err != nil || len(evs) != 1 {
		t.Fatalf("decode: %v, %v", evs, err)
	}
	if ev := evs[0]; ev.Kind != Failover || ev.Task != -1 || ev.Server != 0 || ev.Attempt != -1 ||
		ev.From != -1 || !math.IsNaN(ev.Start) || !math.IsNaN(ev.Release) {
		t.Fatalf("absent fields not filled: %+v", ev)
	}
	if _, err := ReadFlightEvents(strings.NewReader(`{"ev":"warp","t":1}` + "\n")); err == nil ||
		!strings.Contains(err.Error(), `unknown event kind "warp"`) {
		t.Fatalf("unknown kind: err = %v", err)
	}
}
