package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// NullTime is a Time whose JSON form survives the simulator's sentinel
// values: NaN (and ±Inf) encode as null, and null decodes back to NaN.
// encoding/json rejects non-finite float64s outright, yet the engine uses
// NaN deliberately — the start of an unassigned task, the dispatch instant
// of a never-dispatched one — so JSON boundaries carrying such fields use
// NullTime (or Times for slices) instead of raw Time. Finite values encode
// byte-identically to encoding/json's float encoding.
type NullTime Time

// MarshalJSON implements json.Marshaler: null for non-finite values.
func (t NullTime) MarshalJSON() ([]byte, error) {
	return AppendTimeJSON(nil, Time(t)), nil
}

// UnmarshalJSON implements json.Unmarshaler: null decodes to NaN.
func (t *NullTime) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*t = NullTime(math.NaN())
		return nil
	}
	f, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return fmt.Errorf("core: parsing time %q: %w", data, err)
	}
	*t = NullTime(f)
	return nil
}

// Times is a []Time with the NullTime encoding applied element-wise: NaN and
// ±Inf entries marshal as null and null entries unmarshal as NaN, while
// finite entries keep encoding/json's exact float form. It is assignable to
// and from []Time (core.Time slices), so engine-facing fields can adopt it
// without conversions.
type Times []Time

// MarshalJSON implements json.Marshaler.
func (ts Times) MarshalJSON() ([]byte, error) {
	if ts == nil {
		return []byte("null"), nil
	}
	buf := make([]byte, 0, 8*len(ts)+2)
	buf = append(buf, '[')
	for i, t := range ts {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = AppendTimeJSON(buf, t)
	}
	return append(buf, ']'), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (ts *Times) UnmarshalJSON(data []byte) error {
	var raw []*float64
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("core: decoding times: %w", err)
	}
	if raw == nil {
		*ts = nil
		return nil
	}
	out := make(Times, len(raw))
	for i, p := range raw {
		if p == nil {
			out[i] = Time(math.NaN())
		} else {
			out[i] = Time(*p)
		}
	}
	*ts = out
	return nil
}

// AppendTimeJSON appends t's JSON form: null for non-finite values, otherwise
// exactly encoding/json's float64 encoding (shortest round-trip form, %e only
// for very small or very large magnitudes, exponent zero-trimmed).
func AppendTimeJSON(buf []byte, t Time) []byte {
	f := float64(t)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(buf, "null"...)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		// Trim the exponent's leading zero ("2.5e-09" → "2.5e-9"), as
		// encoding/json does.
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

// instanceJSON is the stable on-disk form of an Instance.
type instanceJSON struct {
	M     int        `json:"m"`
	Tasks []taskJSON `json:"tasks"`
}

type taskJSON struct {
	Release Time   `json:"release"`
	Proc    Time   `json:"proc"`
	Set     []int  `json:"set,omitempty"` // nil/absent = unrestricted
	Key     int    `json:"key,omitempty"`
	Comment string `json:"comment,omitempty"`
}

// WriteJSON serializes the instance (task IDs are positional and omitted).
func (in *Instance) WriteJSON(w io.Writer) error {
	out := instanceJSON{M: in.M, Tasks: make([]taskJSON, in.N())}
	for i, t := range in.Tasks {
		out.Tasks[i] = taskJSON{Release: t.Release, Proc: t.Proc, Set: t.Set, Key: t.Key}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadInstanceJSON deserializes and validates an instance written by
// WriteJSON (or authored by hand in the same schema). Tasks are re-sorted
// by release time as NewInstance does.
func ReadInstanceJSON(r io.Reader) (*Instance, error) {
	var raw instanceJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("core: decoding instance: %w", err)
	}
	tasks := make([]Task, len(raw.Tasks))
	for i, t := range raw.Tasks {
		var set ProcSet
		if t.Set != nil {
			set = NewProcSet(t.Set...)
		}
		tasks[i] = Task{Release: t.Release, Proc: t.Proc, Set: set, Key: t.Key}
	}
	inst := NewInstance(raw.M, tasks)
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid instance: %w", err)
	}
	return inst, nil
}

// scheduleJSON is the stable on-disk form of a Schedule, embedding its
// instance so a file round-trips standalone. Start uses the NaN-safe Times
// encoding: a faulty/guarded run leaves dropped, rejected and shed tasks
// unassigned (Machine −1, Start NaN), and raw NaN would make encoding/json
// fail the whole write.
type scheduleJSON struct {
	Instance instanceJSON `json:"instance"`
	Machine  []int        `json:"machine"`
	Start    Times        `json:"start"`
}

// WriteJSON serializes the schedule together with its instance.
func (s *Schedule) WriteJSON(w io.Writer) error {
	out := scheduleJSON{
		Instance: instanceJSON{M: s.Inst.M, Tasks: make([]taskJSON, s.Inst.N())},
		Machine:  s.Machine,
		Start:    s.Start,
	}
	for i, t := range s.Inst.Tasks {
		out.Instance.Tasks[i] = taskJSON{Release: t.Release, Proc: t.Proc, Set: t.Set, Key: t.Key}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadScheduleJSON deserializes a schedule written by WriteJSON and
// validates both the instance and the schedule's feasibility.
func ReadScheduleJSON(r io.Reader) (*Schedule, error) {
	var raw scheduleJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("core: decoding schedule: %w", err)
	}
	tasks := make([]Task, len(raw.Instance.Tasks))
	for i, t := range raw.Instance.Tasks {
		var set ProcSet
		if t.Set != nil {
			set = NewProcSet(t.Set...)
		}
		tasks[i] = Task{Release: t.Release, Proc: t.Proc, Set: set, Key: t.Key}
	}
	inst := NewInstance(raw.Instance.M, tasks)
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid embedded instance: %w", err)
	}
	if len(raw.Machine) != inst.N() || len(raw.Start) != inst.N() {
		return nil, fmt.Errorf("core: schedule arrays sized %d/%d for %d tasks",
			len(raw.Machine), len(raw.Start), inst.N())
	}
	s := NewSchedule(inst)
	partial := false
	for i := range raw.Machine {
		if raw.Machine[i] < 0 || math.IsNaN(raw.Start[i]) {
			// Unassigned task (dropped/rejected/shed in a faulty run): both
			// sides must agree, and NewSchedule already holds (−1, NaN).
			if raw.Machine[i] != -1 || !math.IsNaN(raw.Start[i]) {
				return nil, fmt.Errorf("core: task %d: inconsistent unassigned state (machine %d, start %v)",
					i, raw.Machine[i], raw.Start[i])
			}
			partial = true
			continue
		}
		s.Assign(i, raw.Machine[i], raw.Start[i])
	}
	if partial {
		if err := s.ValidatePartial(); err != nil {
			return nil, fmt.Errorf("core: invalid schedule: %w", err)
		}
	} else if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid schedule: %w", err)
	}
	return s, nil
}
