package viz

import (
	"fmt"
	"io"
	"math"
	"strings"

	"flowsched/internal/core"
	"flowsched/internal/obs"
)

// Outcome colors of the timeline's service bars.
const (
	tlWait      = "#d9d9d9" // queue wait (release → service start, and re-queue gaps)
	tlCompleted = "#59a14f"
	tlCrashed   = "#e15759"
	tlHandedOff = "#f28e2b"
	tlShed      = "#b07aa1"
	tlPending   = "#9aa0a6"
)

func outcomeColor(o obs.AttemptOutcome) string {
	switch o {
	case obs.AttemptCompleted:
		return tlCompleted
	case obs.AttemptCrashed:
		return tlCrashed
	case obs.AttemptHandedOff:
		return tlHandedOff
	case obs.AttemptShed:
		return tlShed
	default:
		return tlPending
	}
}

// TraceTimelineSVG writes a span Gantt of per-task causal traces
// (obs.Tracer output), one row per task in the given order — pass
// Tracer.Worst(k) for a tail postmortem. Each row shows the queue wait
// from release to first service start as a gray bar, every attempt's
// service interval colored by its outcome (green completed, red crashed,
// orange handed-off, purple shed), the re-queue gaps between attempts as
// thinner gray bars, and crash/handoff/shed instants as markers. Hover
// titles carry the numbers (flow, retries, per-attempt intervals).
func TraceTimelineSVG(w io.Writer, traces []*obs.TaskTrace, makespan core.Time, title string) error {
	if len(traces) == 0 {
		return fmt.Errorf("viz: no traces to plot (did the run emit its done event, and did retention keep any?)")
	}
	const (
		rowH   = 20
		rowGap = 6
		left   = 64
		top    = 40
		plotW  = 760
		bottom = 30
	)
	height := top + len(traces)*(rowH+rowGap) + bottom
	width := left + plotW + 16

	// Horizon: the latest finite instant any trace mentions, or the makespan
	// if larger.
	horizon := float64(makespan)
	if math.IsNaN(horizon) || horizon <= 0 {
		horizon = 0
	}
	grow := func(t core.Time) {
		if v := float64(t); !math.IsNaN(v) && v > horizon {
			horizon = v
		}
	}
	for _, tr := range traces {
		grow(tr.Release)
		grow(tr.EndAt)
		for _, a := range tr.Attempts {
			grow(a.At)
			grow(a.End)
			grow(a.AbortAt)
		}
	}
	if horizon <= 0 {
		horizon = 1
	}
	xOf := func(t core.Time) float64 { return left + float64(t)/horizon*plotW }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&b, `<rect width="100%%" height="100%%" fill="white"/>`+"\n")
	fmt.Fprintf(&b, `<text x="%d" y="16" font-size="13">%s</text>`+"\n", left, escape(title))
	fmt.Fprintf(&b, `<text x="%d" y="30" font-size="10" fill="#555">green completed · red crashed · orange handed-off · purple shed · gray waiting</text>`+"\n", left)

	bar := func(y float64, from, to core.Time, h float64, color, hover string) {
		x0, x1 := xOf(from), xOf(to)
		if math.IsNaN(x0) || math.IsNaN(x1) || x1 <= x0 {
			return
		}
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"><title>%s</title></rect>`+"\n",
			x0, y, x1-x0, h, color, escape(hover))
	}
	marker := func(y float64, at core.Time, color, hover string) {
		x := xOf(at)
		if math.IsNaN(x) {
			return
		}
		fmt.Fprintf(&b, `<path d="M%.1f,%.1f l4,%d l-8,0 Z" fill="%s"><title>%s</title></path>`+"\n",
			x, y, rowH, color, escape(hover))
	}

	for row, tr := range traces {
		y := float64(top + row*(rowH+rowGap))
		mid := y + float64(rowH)/4

		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end" fill="#333">T%d</text>`+"\n",
			left-6, y+float64(rowH)-6, tr.Task)

		// Release tick.
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#333" stroke-width="1"><title>T%d released t=%.3g</title></line>`+"\n",
			xOf(tr.Release), y-2, xOf(tr.Release), y+float64(rowH)+2, tr.Task, float64(tr.Release))

		// Waiting spans: release → first service start, and each abort →
		// next dispatch gap, as half-height gray bars.
		prev := tr.Release
		for k, a := range tr.Attempts {
			bar(mid, prev, a.Start, float64(rowH)/2, tlWait,
				fmt.Sprintf("T%d waiting %.3g before attempt %d", tr.Task, float64(a.Start-prev), k+1))
			srvEnd := a.End
			if (a.Outcome == obs.AttemptCrashed || a.Outcome == obs.AttemptHandedOff || a.Outcome == obs.AttemptShed) &&
				!math.IsNaN(float64(a.AbortAt)) && a.AbortAt < srvEnd {
				srvEnd = a.AbortAt
			}
			retimed := ""
			if a.Retimed {
				retimed = " (re-timed)"
			}
			bar(y, a.Start, srvEnd, rowH, outcomeColor(a.Outcome),
				fmt.Sprintf("T%d attempt %d on M%d: [%.3g, %.3g) %s%s",
					tr.Task, k+1, a.Server+1, float64(a.Start), float64(srvEnd), a.Outcome, retimed))
			switch a.Outcome {
			case obs.AttemptCrashed:
				marker(y, a.AbortAt, tlCrashed,
					fmt.Sprintf("T%d attempt %d crashed on M%d at t=%.3g", tr.Task, k+1, a.Server+1, float64(a.AbortAt)))
				prev = a.AbortAt
			case obs.AttemptHandedOff:
				marker(y, a.AbortAt, tlHandedOff,
					fmt.Sprintf("T%d attempt %d handed off from M%d at t=%.3g", tr.Task, k+1, a.Server+1, float64(a.AbortAt)))
				prev = a.AbortAt
			case obs.AttemptShed:
				marker(y, a.AbortAt, tlShed,
					fmt.Sprintf("T%d attempt %d shed from M%d's queue at t=%.3g", tr.Task, k+1, a.Server+1, float64(a.AbortAt)))
				prev = a.AbortAt
			default:
				prev = a.End
			}
		}
		if len(tr.Attempts) == 0 && !math.IsNaN(float64(tr.EndAt)) {
			// Rejected (or deadline-shed before dispatch): waited, never served.
			bar(mid, tr.Release, tr.EndAt, float64(rowH)/2, tlWait,
				fmt.Sprintf("T%d never served: %s %s", tr.Task, tr.State, tr.Reason))
		}

		// Terminal summary hover on an invisible full-row rect.
		flow := "unfinished"
		if !math.IsNaN(float64(tr.Flow)) {
			flow = fmt.Sprintf("flow %.4g", float64(tr.Flow))
		}
		reason := ""
		if tr.Reason != "" {
			reason = " (" + tr.Reason + ")"
		}
		fmt.Fprintf(&b, `<rect x="%d" y="%.1f" width="%d" height="%d" fill="none" pointer-events="all"><title>T%d: %s%s, %s, %d attempt(s), %d retries</title></rect>`+"\n",
			left, y, plotW, rowH, tr.Task, tr.State, reason, flow, len(tr.Attempts), tr.Retries)
	}

	// Time axis.
	axisY := float64(top + len(traces)*(rowH+rowGap))
	fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#333" stroke-width="1"/>`+"\n",
		left, axisY, left+plotW, axisY)
	step := niceStep(horizon)
	for t := 0.0; t <= horizon+1e-9; t += step {
		x := left + t/horizon*float64(plotW)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#333" stroke-width="1"/>`+"\n",
			x, axisY, x, axisY+4)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="middle" fill="#333">%g</text>`+"\n",
			x, axisY+16, t)
	}

	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}
