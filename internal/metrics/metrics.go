// Package metrics renders experiment results as aligned text tables and CSV,
// the form in which every figure of the paper is regenerated (one table per
// figure panel: an x-axis sweep with one series per algorithm).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is one algorithm's curve across the sweep.
type Series struct {
	Name   string
	Values []float64
}

// Table is one figure panel.
type Table struct {
	Title  string
	XLabel string
	YLabel string
	XTicks []string
	Series []Series
}

// NewTable creates an empty table.
func NewTable(title, xlabel, ylabel string) *Table {
	return &Table{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddPoint appends a y value to the named series (creating it on first use)
// and ensures the x tick is registered.
func (t *Table) AddPoint(series, xtick string, y float64) {
	found := false
	for _, x := range t.XTicks {
		if x == xtick {
			found = true
			break
		}
	}
	if !found {
		t.XTicks = append(t.XTicks, xtick)
	}
	for i := range t.Series {
		if t.Series[i].Name == series {
			t.Series[i].Values = append(t.Series[i].Values, y)
			return
		}
	}
	t.Series = append(t.Series, Series{Name: series, Values: []float64{y}})
}

// Validate reports nil when every series has one value per x tick.
func (t *Table) Validate() error {
	for _, s := range t.Series {
		if len(s.Values) != len(t.XTicks) {
			return fmt.Errorf("metrics: series %q has %d values for %d ticks",
				s.Name, len(s.Values), len(t.XTicks))
		}
	}
	return nil
}

// Get returns the value of a series at an x tick.
func (t *Table) Get(series, xtick string) (float64, bool) {
	xi := -1
	for i, x := range t.XTicks {
		if x == xtick {
			xi = i
			break
		}
	}
	if xi == -1 {
		return 0, false
	}
	for _, s := range t.Series {
		if s.Name == series && xi < len(s.Values) {
			return s.Values[xi], true
		}
	}
	return 0, false
}

// Ratio returns the mean ratio of series a over series b across all ticks.
func (t *Table) Ratio(a, b string) (float64, error) {
	var sa, sb *Series
	for i := range t.Series {
		switch t.Series[i].Name {
		case a:
			sa = &t.Series[i]
		case b:
			sb = &t.Series[i]
		}
	}
	if sa == nil || sb == nil {
		return 0, fmt.Errorf("metrics: ratio needs series %q and %q", a, b)
	}
	if len(sa.Values) != len(sb.Values) || len(sa.Values) == 0 {
		return 0, fmt.Errorf("metrics: mismatched series lengths")
	}
	sum, n := 0.0, 0
	for i := range sa.Values {
		if sb.Values[i] > 0 {
			sum += sa.Values[i] / sb.Values[i]
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("metrics: series %q all zero", b)
	}
	return sum / float64(n), nil
}

// Render writes the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "  y: %s\n", t.YLabel)
	// Header.
	w := 12
	for _, s := range t.Series {
		if len(s.Name)+2 > w {
			w = len(s.Name) + 2
		}
	}
	fmt.Fprintf(&b, "  %-12s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, "%*s", w, s.Name)
	}
	b.WriteByte('\n')
	for xi, x := range t.XTicks {
		fmt.Fprintf(&b, "  %-12s", x)
		for _, s := range t.Series {
			if xi < len(s.Values) {
				fmt.Fprintf(&b, "%*s", w, formatVal(s.Values[xi]))
			} else {
				fmt.Fprintf(&b, "%*s", w, "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV writes the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(t.XLabel)
	for _, s := range t.Series {
		b.WriteByte(',')
		b.WriteString(s.Name)
	}
	b.WriteByte('\n')
	for xi, x := range t.XTicks {
		b.WriteString(x)
		for _, s := range t.Series {
			b.WriteByte(',')
			if xi < len(s.Values) {
				fmt.Fprintf(&b, "%g", s.Values[xi])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatVal(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Percentile returns the p-th percentile (0..100) of xs using nearest-rank.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}
