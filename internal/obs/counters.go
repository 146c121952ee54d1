package obs

import (
	"fmt"
	"io"

	"flowsched/internal/core"
)

// Counters is a Probe that tallies the run's events — the counter set a
// production scheduler would export: one total per kind, plus four values
// derived from event fields. WriteProm renders them in the Prometheus text
// exposition format.
type Counters struct {
	n [NumKinds]int64

	Lost          int64     // queued-or-running requests lost to crashes (Σ failover Lost)
	WarmUpTime    core.Time // total warm-up delay imposed on joiners (Σ scale-up Ready − T)
	HedgeCopyWins int64     // hedged tasks whose speculative copy won
	Brownouts     int64     // rising edges of the SLO guard's brownout signal
}

// OnEvent implements Probe.
func (c *Counters) OnEvent(ev Event) {
	c.n[ev.Kind]++
	switch ev.Kind {
	case Failover:
		c.Lost += int64(ev.Lost)
	case ScaleUp:
		c.WarmUpTime += ev.Ready - ev.T
	case HedgeWin:
		if ev.Copy {
			c.HedgeCopyWins++
		}
	case Brownout:
		if ev.Active {
			c.Brownouts++
		}
	}
}

// Count returns the number of events of kind k seen so far.
func (c *Counters) Count(k Kind) int64 { return c.n[k] }

// WriteProm writes the counters in the Prometheus text exposition format
// under the flowsched_ namespace: each kind's counter in table order (the
// brownout family counts rising edges), lost tasks after failovers, copy
// wins after hedge wins, and the warm-up time last.
func (c *Counters) WriteProm(w io.Writer) error {
	type row struct{ name, help, value string }
	var rows []row
	for k, d := range kinds {
		if d.prom == "" {
			continue
		}
		v := c.n[k]
		if Kind(k) == Brownout {
			v = c.Brownouts
		}
		rows = append(rows, row{d.prom, d.help, fmt.Sprint(v)})
		switch Kind(k) {
		case Failover:
			rows = append(rows, row{"flowsched_lost_tasks_total", "Queued-or-running requests lost to crashes.", fmt.Sprint(c.Lost)})
		case HedgeWin:
			rows = append(rows, row{"flowsched_hedge_copy_wins_total", "Hedged tasks won by the speculative copy.", fmt.Sprint(c.HedgeCopyWins)})
		}
	}
	// Seconds-valued counter: the float renders with %g, and the family
	// carries the _total suffix like every other counter here (promlint
	// contract pinned by TestCountersPromExposition).
	rows = append(rows, row{"flowsched_warm_up_time_total", "Total warm-up delay imposed on joining machines.",
		fmt.Sprintf("%g", float64(c.WarmUpTime))})
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", r.name, r.help, r.name, r.name, r.value); err != nil {
			return err
		}
	}
	return nil
}
