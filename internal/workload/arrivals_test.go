package workload

import (
	"math"
	"testing"

	"edgerep/internal/topology"
)

// DefaultArrivalConfig returns a gentle default: one query every 2 seconds
// on average with diurnal shape and 10-second holds.
func DefaultArrivalConfig() ArrivalConfig {
	return ArrivalConfig{MeanRatePerSec: 0.5, Diurnal: true, MeanHoldSec: 10, Seed: 1}
}

func arrivalWorkload(t testing.TB, nq int) *Workload {
	t.Helper()
	top := topology.MustGenerate(topology.DefaultConfig())
	c := DefaultConfig()
	c.NumDatasets = 8
	c.NumQueries = nq
	return MustGenerate(c, top)
}

func TestGenerateArrivalsBasics(t *testing.T) {
	w := arrivalWorkload(t, 50)
	as, err := GenerateArrivals(w, DefaultArrivalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 50 {
		t.Fatalf("got %d arrivals, want 50", len(as))
	}
	prev := -1.0
	for i, a := range as {
		if int(a.Query) != i {
			t.Fatalf("arrival %d for query %d, want ID order", i, a.Query)
		}
		if a.AtSec <= prev {
			t.Fatalf("arrival times not strictly increasing at %d", i)
		}
		prev = a.AtSec
		if a.HoldSec <= 0 {
			t.Fatalf("arrival %d has no hold despite MeanHoldSec > 0", i)
		}
	}
}

func TestGenerateArrivalsValidation(t *testing.T) {
	w := arrivalWorkload(t, 5)
	if _, err := GenerateArrivals(w, ArrivalConfig{MeanRatePerSec: 0}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := GenerateArrivals(w, ArrivalConfig{MeanRatePerSec: 1, MeanHoldSec: -1}); err == nil {
		t.Fatal("negative hold accepted")
	}
	if _, err := GenerateArrivals(&Workload{}, DefaultArrivalConfig()); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestHomogeneousRateApproximatesMean(t *testing.T) {
	w := arrivalWorkload(t, 100)
	// Use many queries so the empirical rate concentrates.
	big := &Workload{Datasets: w.Datasets}
	for i := 0; i < 4000; i++ {
		big.Queries = append(big.Queries, Query{ID: QueryID(i), Demands: w.Queries[0].Demands,
			ComputePerGB: 1, DeadlineSec: 1})
	}
	cfg := ArrivalConfig{MeanRatePerSec: 2.0, Seed: 3}
	as, err := GenerateArrivals(big, cfg)
	if err != nil {
		t.Fatal(err)
	}
	span := as[len(as)-1].AtSec
	rate := float64(len(as)) / span
	if math.Abs(rate-2.0) > 0.2 {
		t.Fatalf("empirical rate %.3f, want ≈2.0", rate)
	}
	if as[0].HoldSec != 0 {
		t.Fatal("hold generated despite MeanHoldSec = 0")
	}
}

func TestDiurnalRateApproximatesMeanOverDays(t *testing.T) {
	w := arrivalWorkload(t, 100)
	big := &Workload{Datasets: w.Datasets}
	for i := 0; i < 6000; i++ {
		big.Queries = append(big.Queries, Query{ID: QueryID(i), Demands: w.Queries[0].Demands,
			ComputePerGB: 1, DeadlineSec: 1})
	}
	cfg := ArrivalConfig{MeanRatePerSec: 0.05, Diurnal: true, Seed: 5}
	as, err := GenerateArrivals(big, cfg)
	if err != nil {
		t.Fatal(err)
	}
	span := as[len(as)-1].AtSec
	if span < 86400 {
		t.Skipf("window %.0fs shorter than a day; thinning check needs full cycles", span)
	}
	rate := float64(len(as)) / span
	if math.Abs(rate-0.05) > 0.01 {
		t.Fatalf("diurnal empirical rate %.4f, want ≈0.05", rate)
	}
	// Day hours (9-21) must carry clearly more arrivals than night (0-6).
	day, night := 0, 0
	for _, a := range as {
		h := int(a.AtSec/3600) % 24
		switch {
		case h >= 9 && h < 21:
			day++
		case h < 6:
			night++
		}
	}
	if day <= night*2 {
		t.Fatalf("diurnal shape missing: %d day vs %d night arrivals", day, night)
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	w := arrivalWorkload(t, 30)
	a1, err := GenerateArrivals(w, DefaultArrivalConfig())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := GenerateArrivals(w, DefaultArrivalConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("arrivals nondeterministic")
		}
	}
}
