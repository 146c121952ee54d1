// Package obs is the in-flight observability layer of the cluster
// simulator: probes that watch a run while it executes instead of replaying
// the finished core.Schedule through trace.FromSchedule.
//
// A Probe receives the simulator's event stream as Event values through its
// one method, OnEvent. There are 23 event kinds, one table row each (see
// Kind): the paper engine's arrival, dispatch, complete and done; the fault
// stream's retry, drop and failover (sim.RunFaulty); reject, shed, eject,
// readmit and brownout (overload control, sim.RunGuarded); scale-up, join,
// scale-down and handoff (elastic membership, sim.RunElastic); hedge,
// hedge-win and hedge-cancel (sim.RunHedged); and breaker-open,
// breaker-close, breaker-probe and retry-budget-drop (sim.RunResilient).
// The table gives each kind its JSON name, its fields and its Prometheus
// counter, so every sink sees every kind through one schema.
//
// The simulator emits behind a `probe != nil` guard and passes the Event by
// value, so a run without a probe pays nothing — the hot loops stay
// allocation-free (pinned by the alloc guards in internal/sim and the
// ProbeOverheadSim benchreg pair). Probes themselves may allocate: they are
// only on the instrumented path.
//
// Six built-in probes cover the production observables:
//
//   - Histogram / HistogramProbe: streaming log-bucketed flow-time and
//     stretch distributions with bounded memory, quantile queries, and
//     per-bucket task exemplars (QuantileExemplar);
//   - Sampler: a fixed-interval time series of per-server queue length,
//     in-flight max-flow watermark and instantaneous utilization — the
//     w_τ(j) profile of the paper's Section 6 lower bounds, live;
//   - JSONLSink: a buffered structured event log of every kind for offline
//     analysis, replayable into a trace (ReplayTrace);
//   - Counters: one total per kind, plus lost tasks, warm-up time, copy
//     wins and brownout rising edges, with Prometheus-style text exposition;
//   - Tracer: per-task causal span trees (queued → attempts → terminal
//     disposition) with KeepAll or KeepWorst(k) retention;
//   - FlightRecorder: a fixed-size ring of the last N events — the crash
//     recorder chaos and audit dump next to their findings.
//
// Multi fans one event stream out to several probes.
package obs

// Probe observes a simulation run in flight. OnEvent is invoked
// synchronously from the simulator loop; implementations must not retain
// the goroutine or block.
//
// Event-time contract: the fault-free simulator (sim.Run) determines a
// request's completion at dispatch, so its Complete event follows the
// Dispatch immediately with the — possibly future — completion instant.
// Probes that need events in time order must reorder internally (Sampler
// does, with a pending-completion heap). The unified engine (sim.RunFaulty
// and up) reports Complete only when a completion becomes final, in time
// order; attempts invalidated by a crash never complete — their server's
// backlog is reported through Failover instead.
type Probe interface {
	OnEvent(ev Event)
}

// multi fans events out to several probes in order.
type multi []Probe

// OnEvent implements Probe.
func (m multi) OnEvent(ev Event) {
	for _, p := range m {
		p.OnEvent(ev)
	}
}

// Multi combines probes into one: every event is forwarded to each probe in
// argument order. Nil entries are skipped; Multi() and Multi(nil...) return
// nil, so the simulator's nil guard still short-circuits.
func Multi(probes ...Probe) Probe {
	kept := make(multi, 0, len(probes))
	for _, p := range probes {
		if p != nil {
			kept = append(kept, p)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}
