// Package analytics implements the big-data analytic queries the paper's
// testbed evaluates over the mobile-app-usage trace (§4.3): "the most
// popular applications, at what time the found applications would be used,
// and the usage pattern of some mobile applications". Evaluation is split
// the way the system model requires: each replica node computes a Partial
// (the intermediate result, whose size relative to the input realizes the
// paper's selectivity α), partials travel to the query's home node, and
// Merge + Finalize aggregate them there.
package analytics

import (
	"fmt"
	"sort"

	"edgerep/internal/workload"
)

// Kind selects the analytic query.
type Kind int

const (
	// TopApps ranks applications by usage events.
	TopApps Kind = iota
	// HourlyHistogram counts events per hour-of-day across all apps.
	HourlyHistogram
	// DistinctUsers counts unique users.
	DistinctUsers
	// AppUsagePattern is the hour-of-day histogram of one application.
	AppUsagePattern
	// TopUsers ranks users by total usage seconds.
	TopUsers
	// SessionStats reports count, total, min, max and mean session
	// duration.
	SessionStats
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case TopApps:
		return "top-apps"
	case HourlyHistogram:
		return "hourly-histogram"
	case DistinctUsers:
		return "distinct-users"
	case AppUsagePattern:
		return "app-usage-pattern"
	case TopUsers:
		return "top-users"
	case SessionStats:
		return "session-stats"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Request describes one query.
type Request struct {
	Kind Kind `json:"kind"`
	// K bounds the result size of TopApps.
	K int `json:"k,omitempty"`
	// AppID selects the application for AppUsagePattern.
	AppID int `json:"app_id,omitempty"`
}

// Validate reports nil for a well-formed request.
func (r Request) Validate() error {
	switch r.Kind {
	case TopApps:
		if r.K < 1 {
			return fmt.Errorf("analytics: top-apps needs K ≥ 1, got %d", r.K)
		}
	case TopUsers:
		if r.K < 1 {
			return fmt.Errorf("analytics: top-users needs K ≥ 1, got %d", r.K)
		}
	case HourlyHistogram, DistinctUsers, SessionStats:
	case AppUsagePattern:
		if r.AppID < 0 {
			return fmt.Errorf("analytics: negative app id %d", r.AppID)
		}
	default:
		return fmt.Errorf("analytics: unknown kind %d", int(r.Kind))
	}
	return nil
}

// Partial is the intermediate result produced on a replica node. Only the
// fields relevant to the request kind are populated, keeping the transferred
// volume (the α·|S_n| of the model) small.
type Partial struct {
	Records       int             `json:"records"`
	AppCounts     map[int]int64   `json:"app_counts,omitempty"`
	HourCounts    []int64         `json:"hour_counts,omitempty"`
	UserIDs       map[int64]bool  `json:"user_ids,omitempty"`
	UserDurations map[int64]int64 `json:"user_durations,omitempty"`
	DurSumS       int64           `json:"dur_sum_s,omitempty"`
	DurMinS       int64           `json:"dur_min_s,omitempty"`
	DurMaxS       int64           `json:"dur_max_s,omitempty"`
}

// Aggregate scans records and produces the partial for a request.
func Aggregate(recs []workload.UsageRecord, r Request) (*Partial, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	p := &Partial{Records: len(recs)}
	switch r.Kind {
	case TopApps:
		p.AppCounts = make(map[int]int64)
		for _, rec := range recs {
			p.AppCounts[rec.AppID]++
		}
	case HourlyHistogram:
		p.HourCounts = make([]int64, 24)
		for _, rec := range recs {
			p.HourCounts[rec.Start.Hour()]++
		}
	case DistinctUsers:
		p.UserIDs = make(map[int64]bool)
		for _, rec := range recs {
			p.UserIDs[rec.UserID] = true
		}
	case AppUsagePattern:
		p.HourCounts = make([]int64, 24)
		for _, rec := range recs {
			if rec.AppID == r.AppID {
				p.HourCounts[rec.Start.Hour()]++
			}
		}
	case TopUsers:
		p.UserDurations = make(map[int64]int64)
		for _, rec := range recs {
			p.UserDurations[rec.UserID] += int64(rec.DurationS)
		}
	case SessionStats:
		for i, rec := range recs {
			d := int64(rec.DurationS)
			p.DurSumS += d
			if i == 0 || d < p.DurMinS {
				p.DurMinS = d
			}
			if d > p.DurMaxS {
				p.DurMaxS = d
			}
		}
	}
	return p, nil
}

// Merge folds other into p (associative, commutative).
func (p *Partial) Merge(other *Partial) {
	p.Records += other.Records
	if other.AppCounts != nil {
		if p.AppCounts == nil {
			p.AppCounts = make(map[int]int64)
		}
		for app, n := range other.AppCounts {
			p.AppCounts[app] += n
		}
	}
	if other.HourCounts != nil {
		if p.HourCounts == nil {
			p.HourCounts = make([]int64, 24)
		}
		for h, n := range other.HourCounts {
			p.HourCounts[h] += n
		}
	}
	if other.UserIDs != nil {
		if p.UserIDs == nil {
			p.UserIDs = make(map[int64]bool)
		}
		for u := range other.UserIDs {
			p.UserIDs[u] = true
		}
	}
	if other.UserDurations != nil {
		if p.UserDurations == nil {
			p.UserDurations = make(map[int64]int64)
		}
		for u, d := range other.UserDurations {
			p.UserDurations[u] += d
		}
	}
	p.DurSumS += other.DurSumS
	if other.Records > 0 {
		if p.DurMinS == 0 || (other.DurMinS > 0 && other.DurMinS < p.DurMinS) {
			p.DurMinS = other.DurMinS
		}
		if other.DurMaxS > p.DurMaxS {
			p.DurMaxS = other.DurMaxS
		}
	}
}

// AppCount is one TopApps result row.
type AppCount struct {
	AppID int   `json:"app_id"`
	Count int64 `json:"count"`
}

// UserDuration is one TopUsers result row.
type UserDuration struct {
	UserID    int64 `json:"user_id"`
	DurationS int64 `json:"duration_s"`
}

// Sessions summarizes session durations.
type Sessions struct {
	Count int     `json:"count"`
	SumS  int64   `json:"sum_s"`
	MinS  int64   `json:"min_s"`
	MaxS  int64   `json:"max_s"`
	MeanS float64 `json:"mean_s"`
}

// Result is the finalized answer delivered to the user.
type Result struct {
	Kind          Kind           `json:"kind"`
	TopApps       []AppCount     `json:"top_apps,omitempty"`
	TopUsers      []UserDuration `json:"top_users,omitempty"`
	HourCounts    []int64        `json:"hour_counts,omitempty"`
	DistinctUsers int            `json:"distinct_users,omitempty"`
	Sessions      *Sessions      `json:"sessions,omitempty"`
	TotalRecords  int            `json:"total_records"`
}

// Finalize turns a merged partial into the user-facing result.
func Finalize(p *Partial, r Request) (*Result, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	out := &Result{Kind: r.Kind, TotalRecords: p.Records}
	switch r.Kind {
	case TopApps:
		rows := make([]AppCount, 0, len(p.AppCounts))
		for app, n := range p.AppCounts {
			rows = append(rows, AppCount{AppID: app, Count: n})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].Count != rows[j].Count {
				return rows[i].Count > rows[j].Count
			}
			return rows[i].AppID < rows[j].AppID
		})
		if len(rows) > r.K {
			rows = rows[:r.K]
		}
		out.TopApps = rows
	case HourlyHistogram, AppUsagePattern:
		out.HourCounts = p.HourCounts
		if out.HourCounts == nil {
			out.HourCounts = make([]int64, 24)
		}
	case DistinctUsers:
		out.DistinctUsers = len(p.UserIDs)
	case TopUsers:
		rows := make([]UserDuration, 0, len(p.UserDurations))
		for u, d := range p.UserDurations {
			rows = append(rows, UserDuration{UserID: u, DurationS: d})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].DurationS != rows[j].DurationS {
				return rows[i].DurationS > rows[j].DurationS
			}
			return rows[i].UserID < rows[j].UserID
		})
		if len(rows) > r.K {
			rows = rows[:r.K]
		}
		out.TopUsers = rows
	case SessionStats:
		ses := &Sessions{Count: p.Records, SumS: p.DurSumS, MinS: p.DurMinS, MaxS: p.DurMaxS}
		if ses.Count > 0 {
			ses.MeanS = float64(ses.SumS) / float64(ses.Count)
		}
		out.Sessions = ses
	}
	return out, nil
}
