package viz

import (
	"fmt"
	"io"
	"strings"

	"flowsched/internal/obs"
)

// TimeSeriesSVG writes an SVG chart of a sampled run (obs.Sampler output):
// the total backlog as a filled step area, each server's queue length as a
// thin line, and the in-flight max-flow watermark (the live counterpart of
// Fmax, right axis) as a dashed overlay. Over a stable adversarial prefix
// the per-server lines fan out into the staircase profile w_τ(j) of the
// paper's Section 6.
func TimeSeriesSVG(w io.Writer, samples []obs.Sample, title string) error {
	if len(samples) == 0 {
		return fmt.Errorf("viz: no samples to plot (did the run emit its done event?)")
	}
	const (
		left   = 56
		right  = 56
		top    = 40
		plotW  = 720
		plotH  = 220
		bottom = 36
	)
	width := left + plotW + right
	height := top + plotH + bottom

	tMax := samples[len(samples)-1].Time
	if tMax <= 0 {
		tMax = 1
	}
	maxBacklog, maxAge := 1, 0.0
	for _, s := range samples {
		if s.Backlog > maxBacklog {
			maxBacklog = s.Backlog
		}
		for _, q := range s.Queue {
			if q > maxBacklog {
				maxBacklog = q
			}
		}
		if s.MaxAge > maxAge {
			maxAge = s.MaxAge
		}
	}
	if maxAge <= 0 {
		maxAge = 1
	}
	xOf := func(t float64) float64 { return left + t/tMax*plotW }
	yOf := func(v float64) float64 { return top + plotH - v/float64(maxBacklog)*plotH }
	yAge := func(v float64) float64 { return top + plotH - v/maxAge*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&b, `<rect width="100%%" height="100%%" fill="white"/>`+"\n")
	fmt.Fprintf(&b, `<text x="%d" y="16" font-size="13">%s</text>`+"\n", left, escape(title))

	// Backlog as a filled step area.
	var area strings.Builder
	fmt.Fprintf(&area, "M%.1f,%.1f", xOf(samples[0].Time), yOf(0))
	for i, s := range samples {
		if i > 0 {
			fmt.Fprintf(&area, " L%.1f,%.1f", xOf(s.Time), yOf(float64(samples[i-1].Backlog)))
		}
		fmt.Fprintf(&area, " L%.1f,%.1f", xOf(s.Time), yOf(float64(s.Backlog)))
	}
	fmt.Fprintf(&area, " L%.1f,%.1f Z", xOf(samples[len(samples)-1].Time), yOf(0))
	fmt.Fprintf(&b, `<path d="%s" fill="#4e79a7" fill-opacity="0.25" stroke="#4e79a7" stroke-width="1.5"><title>backlog (released, unfinished)</title></path>`+"\n", area.String())

	// Per-server queue lengths as thin lines.
	for j := range samples[0].Queue {
		var line strings.Builder
		for i, s := range samples {
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&line, "%s%.1f,%.1f ", cmd, xOf(s.Time), yOf(float64(s.Queue[j])))
		}
		color := palette[j%len(palette)]
		fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="0.8" stroke-opacity="0.7"><title>M%d queue</title></path>`+"\n",
			strings.TrimSpace(line.String()), color, j+1)
	}

	// In-flight max-flow watermark, dashed, on the right axis.
	var wm strings.Builder
	for i, s := range samples {
		cmd := "L"
		if i == 0 {
			cmd = "M"
		}
		fmt.Fprintf(&wm, "%s%.1f,%.1f ", cmd, xOf(s.Time), yAge(s.MaxAge))
	}
	fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="#e15759" stroke-width="1.5" stroke-dasharray="5,3"><title>in-flight max flow watermark</title></path>`+"\n",
		strings.TrimSpace(wm.String()))

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`+"\n", left, top+plotH, left+plotW, top+plotH)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`+"\n", left, top, left, top+plotH)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#e15759"/>`+"\n", left+plotW, top, left+plotW, top+plotH)
	step := niceStep(tMax)
	for t := 0.0; t <= tMax+1e-9; t += step {
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#333"/>`+"\n", xOf(t), top+plotH, xOf(t), top+plotH+4)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle">%g</text>`+"\n", xOf(t), top+plotH+16, t)
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end">%d</text>`+"\n", left-4, top+8, maxBacklog)
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end">0</text>`+"\n", left-4, top+plotH+4)
	fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#e15759">%.3g</text>`+"\n", left+plotW+4, top+8, maxAge)
	fmt.Fprintf(&b, `<text x="%d" y="%d">backlog / per-server queues (left), max-flow watermark (right, dashed)</text>`+"\n",
		left, top+plotH+32)
	fmt.Fprintln(&b, `</svg>`)
	_, err := io.WriteString(w, b.String())
	return err
}
