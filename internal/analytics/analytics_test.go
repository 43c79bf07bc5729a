package analytics

import (
	"testing"
	"testing/quick"
	"time"

	"edgerep/internal/workload"
)

func trace(t testing.TB, n int) []workload.UsageRecord {
	t.Helper()
	c := workload.DefaultTraceConfig()
	c.Records = n
	recs, err := workload.GenerateTrace(c)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestValidate(t *testing.T) {
	bad := []Request{
		{Kind: TopApps, K: 0},
		{Kind: AppUsagePattern, AppID: -1},
		{Kind: Kind(99)},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Fatalf("bad request %d accepted", i)
		}
		if _, err := Aggregate(nil, r); err == nil {
			t.Fatalf("Aggregate accepted bad request %d", i)
		}
		if _, err := Finalize(&Partial{}, r); err == nil {
			t.Fatalf("Finalize accepted bad request %d", i)
		}
	}
}

func TestTopAppsEndToEnd(t *testing.T) {
	recs := trace(t, 5000)
	req := Request{Kind: TopApps, K: 5}
	p, err := Aggregate(recs, req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Finalize(p, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopApps) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.TopApps))
	}
	for i := 1; i < len(res.TopApps); i++ {
		if res.TopApps[i].Count > res.TopApps[i-1].Count {
			t.Fatalf("rows not sorted: %v", res.TopApps)
		}
	}
	// Verify against a direct count.
	direct := map[int]int64{}
	for _, r := range recs {
		direct[r.AppID]++
	}
	for _, row := range res.TopApps {
		if direct[row.AppID] != row.Count {
			t.Fatalf("app %d count %d, direct %d", row.AppID, row.Count, direct[row.AppID])
		}
	}
}

func TestHourlyHistogramSumsToRecords(t *testing.T) {
	recs := trace(t, 3000)
	req := Request{Kind: HourlyHistogram}
	p, err := Aggregate(recs, req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Finalize(p, req)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, n := range res.HourCounts {
		sum += n
	}
	if sum != int64(len(recs)) {
		t.Fatalf("histogram sums to %d, want %d", sum, len(recs))
	}
}

func TestDistinctUsers(t *testing.T) {
	now := time.Now()
	recs := []workload.UsageRecord{
		{UserID: 1, AppID: 0, Start: now}, {UserID: 2, AppID: 0, Start: now},
		{UserID: 1, AppID: 1, Start: now}, {UserID: 3, AppID: 2, Start: now},
	}
	req := Request{Kind: DistinctUsers}
	p, err := Aggregate(recs, req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Finalize(p, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.DistinctUsers != 3 {
		t.Fatalf("distinct users %d, want 3", res.DistinctUsers)
	}
}

func TestAppUsagePatternFiltersApp(t *testing.T) {
	base := time.Date(2019, 1, 1, 10, 0, 0, 0, time.UTC)
	recs := []workload.UsageRecord{
		{UserID: 1, AppID: 7, Start: base},
		{UserID: 2, AppID: 7, Start: base.Add(3 * time.Hour)},
		{UserID: 3, AppID: 9, Start: base},
	}
	req := Request{Kind: AppUsagePattern, AppID: 7}
	p, err := Aggregate(recs, req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Finalize(p, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.HourCounts[10] != 1 || res.HourCounts[13] != 1 {
		t.Fatalf("pattern %v, want hits at 10 and 13", res.HourCounts)
	}
	var sum int64
	for _, n := range res.HourCounts {
		sum += n
	}
	if sum != 2 {
		t.Fatalf("pattern counts %d events, want 2 (app filter)", sum)
	}
}

// Distributed evaluation must equal centralized evaluation: partition the
// trace, aggregate per partition, merge — same result as aggregating whole.
func TestMergeEquivalentToCentralized(t *testing.T) {
	recs := trace(t, 4000)
	parts, err := workload.PartitionTrace(recs, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []Request{
		{Kind: TopApps, K: 10},
		{Kind: HourlyHistogram},
		{Kind: DistinctUsers},
		{Kind: AppUsagePattern, AppID: 1},
	} {
		central, err := Aggregate(recs, req)
		if err != nil {
			t.Fatal(err)
		}
		var merged *Partial
		for _, part := range parts {
			p, err := Aggregate(part, req)
			if err != nil {
				t.Fatal(err)
			}
			if merged == nil {
				merged = p
			} else {
				merged.Merge(p)
			}
		}
		cRes, err := Finalize(central, req)
		if err != nil {
			t.Fatal(err)
		}
		mRes, err := Finalize(merged, req)
		if err != nil {
			t.Fatal(err)
		}
		switch req.Kind {
		case TopApps:
			if len(cRes.TopApps) != len(mRes.TopApps) {
				t.Fatalf("%v: row counts differ", req.Kind)
			}
			for i := range cRes.TopApps {
				if cRes.TopApps[i] != mRes.TopApps[i] {
					t.Fatalf("%v: row %d differs: %v vs %v", req.Kind, i, cRes.TopApps[i], mRes.TopApps[i])
				}
			}
		case HourlyHistogram, AppUsagePattern:
			for h := range cRes.HourCounts {
				if cRes.HourCounts[h] != mRes.HourCounts[h] {
					t.Fatalf("%v: hour %d differs", req.Kind, h)
				}
			}
		case DistinctUsers:
			if cRes.DistinctUsers != mRes.DistinctUsers {
				t.Fatalf("distinct users %d vs %d", cRes.DistinctUsers, mRes.DistinctUsers)
			}
		}
	}
}

// Property: merging is commutative for the histogram kinds.
func TestMergeCommutativeProperty(t *testing.T) {
	recs := trace(t, 1000)
	halves, err := workload.PartitionTrace(recs, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := func(kindRaw uint8) bool {
		req := Request{Kind: Kind(int(kindRaw) % 4), K: 5, AppID: 1}
		a1, err := Aggregate(halves[0], req)
		if err != nil {
			return false
		}
		b1, err := Aggregate(halves[1], req)
		if err != nil {
			return false
		}
		a2, err := Aggregate(halves[0], req)
		if err != nil {
			return false
		}
		b2, err := Aggregate(halves[1], req)
		if err != nil {
			return false
		}
		a1.Merge(b1) // a+b
		b2.Merge(a2) // b+a
		r1, err := Finalize(a1, req)
		if err != nil {
			return false
		}
		r2, err := Finalize(b2, req)
		if err != nil {
			return false
		}
		if r1.TotalRecords != r2.TotalRecords || r1.DistinctUsers != r2.DistinctUsers {
			return false
		}
		for i := range r1.TopApps {
			if r1.TopApps[i] != r2.TopApps[i] {
				return false
			}
		}
		for i := range r1.HourCounts {
			if r1.HourCounts[i] != r2.HourCounts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		TopApps: "top-apps", HourlyHistogram: "hourly-histogram",
		DistinctUsers: "distinct-users", AppUsagePattern: "app-usage-pattern",
		Kind(42): "Kind(42)",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func BenchmarkAggregateTopApps(b *testing.B) {
	c := workload.DefaultTraceConfig()
	c.Records = 20000
	recs, err := workload.GenerateTrace(c)
	if err != nil {
		b.Fatal(err)
	}
	req := Request{Kind: TopApps, K: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Aggregate(recs, req); err != nil {
			b.Fatal(err)
		}
	}
}
