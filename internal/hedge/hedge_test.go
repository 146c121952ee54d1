package hedge

import (
	"math"
	"strings"
	"testing"

	"flowsched/internal/core"
)

// TestConfigValidate walks every branch of Validate: a nil config and each
// trigger style are valid; each malformed field is rejected with an error
// naming it.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     *Config
		wantErr string // "" = valid
	}{
		{"nil", nil, ""},
		{"delay", &Config{Delay: 5}, ""},
		{"quantile", &Config{Quantile: 0.95}, ""},
		{"quantile with fallback delay", &Config{Quantile: 0.5, Delay: 2, MinSamples: 3}, ""},
		{"tied", &Config{Tied: true}, ""},
		{"tied with cap and cancel", &Config{Tied: true, MaxHedges: 10, CancelRunning: true}, ""},
		{"negative delay", &Config{Delay: -1}, "delay"},
		{"NaN delay", &Config{Delay: core.Time(math.NaN())}, "delay"},
		{"+Inf delay", &Config{Delay: core.Time(math.Inf(1))}, "delay"},
		{"-Inf delay", &Config{Delay: core.Time(math.Inf(-1))}, "delay"},
		{"quantile 1", &Config{Quantile: 1}, "quantile"},
		{"quantile -0.1", &Config{Quantile: -0.1}, "quantile"},
		{"NaN quantile", &Config{Quantile: math.NaN()}, "quantile"},
		{"negative min samples", &Config{Delay: 1, MinSamples: -1}, "min samples"},
		{"negative max hedges", &Config{Delay: 1, MaxHedges: -1}, "max hedges"},
		{"no trigger", &Config{MaxHedges: 3, CancelRunning: true}, "needs a trigger"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want an error mentioning %q", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestMinSamplesOrDefault(t *testing.T) {
	for _, tc := range []struct{ set, want int }{
		{0, DefaultMinSamples},
		{1, 1},
		{50, 50},
	} {
		c := &Config{Quantile: 0.9, MinSamples: tc.set}
		if got := c.MinSamplesOrDefault(); got != tc.want {
			t.Errorf("MinSamples %d: resolved %d, want %d", tc.set, got, tc.want)
		}
	}
}
