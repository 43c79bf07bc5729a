package workload

import (
	"fmt"
	"math/rand"
)

// Arrival is one query arrival instant for the online setting.
type Arrival struct {
	Query QueryID
	AtSec float64
	// HoldSec is how long the query's allocation stays live (its
	// evaluation time); 0 means forever.
	HoldSec float64
}

// ArrivalConfig parameterizes a non-homogeneous Poisson arrival process with
// the same diurnal shape as the usage trace: queries arrive faster during
// the day than at night, matching how analysts actually issue them.
type ArrivalConfig struct {
	// MeanRatePerSec is the time-averaged arrival rate.
	MeanRatePerSec float64
	// Diurnal enables hour-of-day rate modulation (the trace's activity
	// curve); off means homogeneous Poisson.
	Diurnal bool
	// MeanHoldSec is the mean exponential hold time; 0 disables holds.
	MeanHoldSec float64
	Seed        int64
}

// Validate reports the first configuration error, or nil.
func (c ArrivalConfig) Validate() error {
	if c.MeanRatePerSec <= 0 {
		return fmt.Errorf("workload: arrival rate %v must be positive", c.MeanRatePerSec)
	}
	if c.MeanHoldSec < 0 {
		return fmt.Errorf("workload: negative hold time %v", c.MeanHoldSec)
	}
	return nil
}

// GenerateArrivals draws one arrival per query of the workload, in query-ID
// order, with strictly increasing times (thinning-based non-homogeneous
// Poisson when Diurnal is set).
func GenerateArrivals(w *Workload, c ArrivalConfig) ([]Arrival, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(w.Queries) == 0 {
		return nil, fmt.Errorf("workload: no queries to schedule")
	}
	rng := rand.New(rand.NewSource(c.Seed))

	// Normalize the diurnal weights to a mean of 1 so MeanRatePerSec stays
	// the time average.
	var shape [24]float64
	total := 0.0
	for _, v := range diurnalHourWeights {
		total += v
	}
	mean := total / 24
	maxRel := 0.0
	for h, v := range diurnalHourWeights {
		shape[h] = v / mean
		if shape[h] > maxRel {
			maxRel = shape[h]
		}
	}

	out := make([]Arrival, 0, len(w.Queries))
	t := 0.0
	for i := range w.Queries {
		if c.Diurnal {
			// Thinning: propose at the peak rate, accept with
			// probability shape(hour)/max.
			for {
				t += rng.ExpFloat64() / (c.MeanRatePerSec * maxRel)
				hour := int(t/3600) % 24
				if rng.Float64() <= shape[hour]/maxRel {
					break
				}
			}
		} else {
			t += rng.ExpFloat64() / c.MeanRatePerSec
		}
		a := Arrival{Query: QueryID(i), AtSec: t}
		if c.MeanHoldSec > 0 {
			a.HoldSec = rng.ExpFloat64() * c.MeanHoldSec
		}
		out = append(out, a)
	}
	return out, nil
}
