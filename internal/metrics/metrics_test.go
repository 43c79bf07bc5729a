package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Table {
	t := NewTable("Fig X", "network size", "volume (GB)")
	t.AddPoint("Appro-G", "20", 10)
	t.AddPoint("Greedy-G", "20", 5)
	t.AddPoint("Appro-G", "50", 20)
	t.AddPoint("Greedy-G", "50", 8)
	return t
}

func TestAddPointAndValidate(t *testing.T) {
	tab := sample()
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tab.XTicks) != 2 || len(tab.Series) != 2 {
		t.Fatalf("ticks %v series %d", tab.XTicks, len(tab.Series))
	}
	tab.AddPoint("Appro-G", "80", 30)
	if err := tab.Validate(); err == nil {
		t.Fatal("ragged table accepted")
	}
}

func TestGet(t *testing.T) {
	tab := sample()
	v, ok := tab.Get("Greedy-G", "50")
	if !ok || v != 8 {
		t.Fatalf("Get = %v,%v want 8,true", v, ok)
	}
	if _, ok := tab.Get("Greedy-G", "99"); ok {
		t.Fatal("unknown tick found")
	}
	if _, ok := tab.Get("Nope", "20"); ok {
		t.Fatal("unknown series found")
	}
}

func TestRatio(t *testing.T) {
	tab := sample()
	r, err := tab.Ratio("Appro-G", "Greedy-G")
	if err != nil {
		t.Fatal(err)
	}
	want := (10.0/5.0 + 20.0/8.0) / 2
	if math.Abs(r-want) > 1e-12 {
		t.Fatalf("ratio %v, want %v", r, want)
	}
	if _, err := tab.Ratio("Appro-G", "Missing"); err == nil {
		t.Fatal("missing series accepted")
	}
}

func TestRenderAndCSV(t *testing.T) {
	tab := sample()
	out := tab.Render()
	for _, want := range []string{"Fig X", "network size", "Appro-G", "Greedy-G", "20", "50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
	csv := tab.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), csv)
	}
	if lines[0] != "network size,Appro-G,Greedy-G" {
		t.Fatalf("CSV header %q", lines[0])
	}
	if lines[1] != "20,10,5" {
		t.Fatalf("CSV row %q", lines[1])
	}
}

func TestFormatValEdgeCases(t *testing.T) {
	tab := NewTable("t", "x", "y")
	tab.AddPoint("s", "a", math.NaN())
	tab.AddPoint("s", "b", 0.0001)
	tab.AddPoint("s", "c", 123456)
	out := tab.Render()
	for _, want := range []string{"NaN", "e-", "123456"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(xs, 50); p != 5 {
		t.Fatalf("P50 = %v, want 5", p)
	}
	if p := Percentile(xs, 100); p != 10 {
		t.Fatalf("P100 = %v, want 10", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("P0 = %v, want 1", p)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("Percentile(nil) != 0")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw uint8) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		pa, pb := Percentile(xs, a), Percentile(xs, b)
		lo, hi := Percentile(xs, 0), Percentile(xs, 100)
		return pa <= pb && pa >= lo && pb <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
