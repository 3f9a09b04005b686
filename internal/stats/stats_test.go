package stats

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestSortedDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	got := Sorted(xs)
	if !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Errorf("Sorted = %v", got)
	}
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

// TestQuantileNearestRank locks down the nearest-rank convention
// (index ceil(q*n)-1), in particular at exact bucket boundaries where
// the old int(q*n) rule was off by one (median of 4 items must be the
// 2nd, not the 3rd).
func TestQuantileNearestRank(t *testing.T) {
	four := []float64{10, 20, 30, 40}
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"median of 4 is the 2nd", four, 0.5, 20},
		{"q25 of 4 is the 1st", four, 0.25, 10},
		{"q75 of 4 is the 3rd", four, 0.75, 30},
		{"q99 of 4 is the 4th", four, 0.99, 40},
		{"tiny q clamps to the 1st", four, 0.0001, 10},
		{"median of 1", []float64{7}, 0.5, 7},
		{"median of 2 is the 1st", []float64{3, 9}, 0.5, 3},
		{"p90 of 10 is the 9th", ten, 0.9, 9},
		{"p50 of 10 is the 5th", ten, 0.5, 5},
		{"p10 of 10 is the 1st", ten, 0.1, 1},
		{"p99 of 10 is the 10th", ten, 0.99, 10},
		{"p30 of 10 is the 3rd", ten, 0.3, 3},
	}
	for _, c := range cases {
		if got := Quantile(c.xs, c.q); got != c.want {
			t.Errorf("%s: Quantile(%v, %v) = %v, want %v", c.name, c.xs, c.q, got, c.want)
		}
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestRollingAvg(t *testing.T) {
	xs := []float64{2, 4, 6, 8, 10}
	got := RollingAvg(xs, 2)
	want := []float64{3, 7, 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RollingAvg = %v, want %v", got, want)
	}
	if got := RollingAvg(xs, 1); !reflect.DeepEqual(got, xs) {
		t.Errorf("window 1 = %v", got)
	}
	if got := RollingAvg(nil, 5); got != nil {
		t.Errorf("empty input = %v", got)
	}
}

func TestFreqTracker(t *testing.T) {
	f := NewFreqTracker()
	if f.MostFrequent() != 0 || f.Min() != 0 || f.Max() != 0 || f.n != 0 {
		t.Error("empty tracker not zeroed")
	}
	for _, v := range []int{2, 1, 2, 5, 2, 1, 0} {
		f.Observe(v)
	}
	if f.Min() != 0 {
		t.Errorf("Min = %d", f.Min())
	}
	if f.Max() != 5 {
		t.Errorf("Max = %d", f.Max())
	}
	if f.MostFrequent() != 2 {
		t.Errorf("MostFrequent = %d", f.MostFrequent())
	}
	if f.n != 7 {
		t.Errorf("n = %d", f.n)
	}
	if want := map[int]int{0: 1, 1: 2, 2: 3, 5: 1}; !reflect.DeepEqual(f.counts, want) {
		t.Errorf("counts = %v, want %v", f.counts, want)
	}
}

func TestFreqTrackerTieBreaksLow(t *testing.T) {
	f := NewFreqTracker()
	f.Observe(7)
	f.Observe(3)
	if got := f.MostFrequent(); got != 3 {
		t.Errorf("tie broke to %d, want 3", got)
	}
}

// Property: quantile of any slice lies within [min, max] and Sorted
// output is ascending.
func TestQuantileWithinRangeProperty(t *testing.T) {
	f := func(seed int64, qRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(40) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(100))
		}
		q := float64(qRaw) / 255
		v := Quantile(xs, q)
		s := Sorted(xs)
		if !sort.Float64sAreSorted(s) {
			return false
		}
		return v >= s[0] && v <= s[n-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: RollingAvg preserves the overall mean when all groups are
// full (window divides length).
func TestRollingAvgMeanProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		window := r.Intn(5) + 2
		groups := r.Intn(6) + 1
		xs := make([]float64, window*groups)
		for i := range xs {
			xs[i] = float64(r.Intn(50))
		}
		avg := RollingAvg(xs, window)
		if len(avg) != groups {
			return false
		}
		diff := Mean(avg) - Mean(xs)
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	sum := Summarize([]float64{4, 1, 3, 2})
	if sum.Count != 4 || sum.Mean != 2.5 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.P50 != Quantile([]float64{1, 2, 3, 4}, 0.5) {
		t.Errorf("p50 = %v", sum.P50)
	}
	if sum.Max != 4 {
		t.Errorf("max = %v", sum.Max)
	}
	if empty := Summarize(nil); empty.Count != 0 || empty.Max != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}
