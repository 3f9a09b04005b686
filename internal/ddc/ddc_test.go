package ddc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"histcube/internal/dims"
	"histcube/internal/molap"
)

// TestFigure4Example reproduces the paper's Figure 4: an original
// array of eight ones yields D = [1 2 1 4 1 2 1 8], and
// q(2,6) = P[6] - P[1] = (D[3]+D[5]+D[6]) - D[1].
func TestFigure4Example(t *testing.T) {
	v := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	DDC{}.Aggregate(v)
	want := []float64{1, 2, 1, 4, 1, 2, 1, 8}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("D[%d] = %v, want %v", i, v[i], want[i])
		}
	}
	p6 := DDC{}.PrefixTerms(nil, 8, 6)
	wantIdx := []int{3, 5, 6}
	if len(p6) != 3 {
		t.Fatalf("PrefixTerms(8,6) = %v", p6)
	}
	for i, tm := range p6 {
		if tm.Index != wantIdx[i] || tm.Factor != 1 {
			t.Fatalf("PrefixTerms(8,6)[%d] = %+v", i, tm)
		}
	}
	p1 := DDC{}.PrefixTerms(nil, 8, 1)
	if len(p1) != 1 || p1[0].Index != 1 {
		t.Fatalf("PrefixTerms(8,1) = %v", p1)
	}
	got := 0.0
	for _, tm := range (DDC{}).QueryTerms(nil, 8, 2, 6) {
		got += tm.Factor * v[tm.Index]
	}
	if got != 5 {
		t.Fatalf("q(2,6) = %v, want 5", got)
	}
}

func TestAggregateCellSemantics(t *testing.T) {
	// Every DDC cell k must equal sum(A[RangeStart..k]).
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 100} {
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(r.Intn(10))
		}
		d := append([]float64(nil), a...)
		DDC{}.Aggregate(d)
		for k := 0; k < n; k++ {
			lo := RangeStart(n, k)
			want := 0.0
			for i := lo; i <= k; i++ {
				want += a[i]
			}
			if d[k] != want {
				t.Fatalf("n=%d: D[%d] = %v, want sum A[%d..%d] = %v", n, k, d[k], lo, k, want)
			}
		}
	}
}

func TestAggregateDisaggregateRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 5, 8, 13, 64, 100} {
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(r.Intn(20) - 10)
		}
		v := append([]float64(nil), a...)
		DDC{}.Aggregate(v)
		DDC{}.Disaggregate(v)
		for i := range v {
			if v[i] != a[i] {
				t.Fatalf("n=%d round trip[%d] = %v, want %v", n, i, v[i], a[i])
			}
		}
	}
	DDC{}.Aggregate(nil)
	DDC{}.Disaggregate(nil)
}

func TestPrefixTermsExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 4, 6, 8, 9, 15, 16, 17, 33} {
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(r.Intn(10))
		}
		d := append([]float64(nil), a...)
		DDC{}.Aggregate(d)
		run := 0.0
		maxLen := MaxChainLen(n)
		for k := 0; k < n; k++ {
			run += a[k]
			terms := DDC{}.PrefixTerms(nil, n, k)
			if len(terms) > maxLen {
				t.Fatalf("n=%d: chain for P[%d] has %d terms, bound %d", n, k, len(terms), maxLen)
			}
			got := 0.0
			for _, tm := range terms {
				if tm.Factor != 1 {
					t.Fatalf("prefix factor %v != 1", tm.Factor)
				}
				got += d[tm.Index]
			}
			if got != run {
				t.Fatalf("n=%d: P[%d] = %v, want %v", n, k, got, run)
			}
		}
	}
}

func TestQueryTermsExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 3, 5, 8, 9, 16, 21} {
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(r.Intn(10))
		}
		d := append([]float64(nil), a...)
		DDC{}.Aggregate(d)
		for l := 0; l < n; l++ {
			for u := l; u < n; u++ {
				want := 0.0
				for i := l; i <= u; i++ {
					want += a[i]
				}
				terms := DDC{}.QueryTerms(nil, n, l, u)
				got := 0.0
				seen := map[int]bool{}
				for _, tm := range terms {
					got += tm.Factor * d[tm.Index]
					if seen[tm.Index] {
						t.Fatalf("n=%d q(%d,%d): index %d not cancelled", n, l, u, tm.Index)
					}
					seen[tm.Index] = true
				}
				if got != want {
					t.Fatalf("n=%d: q(%d,%d) = %v, want %v", n, l, u, got, want)
				}
			}
		}
	}
}

func TestUpdateCellsExhaustive(t *testing.T) {
	// Updating A[i] by delta through UpdateCells must equal
	// re-aggregating the updated original, for every i.
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 4, 7, 8, 9, 16, 19} {
		for i := 0; i < n; i++ {
			a := make([]float64, n)
			for j := range a {
				a[j] = float64(r.Intn(10))
			}
			d := append([]float64(nil), a...)
			DDC{}.Aggregate(d)
			cells := DDC{}.UpdateCells(nil, n, i)
			if len(cells) > MaxChainLen(n)+1 {
				t.Fatalf("n=%d: update to %d touches %d cells, bound %d", n, i, len(cells), MaxChainLen(n)+1)
			}
			for _, c := range cells {
				d[c] += 3
			}
			a[i] += 3
			want := append([]float64(nil), a...)
			DDC{}.Aggregate(want)
			for k := range d {
				if d[k] != want[k] {
					t.Fatalf("n=%d update %d: cell %d = %v, want %v", n, i, k, d[k], want[k])
				}
			}
		}
	}
}

func TestRangeStartConsistency(t *testing.T) {
	// RangeStart(n, k) must be the unique lo with: cell k's prefix
	// chain minus cell k's parent chains covers exactly [lo..k].
	// Direct check: P[k] - P[lo-1] must equal D[k] on a random vector.
	r := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 4, 8, 11, 16, 30} {
		a := make([]float64, n)
		p := make([]float64, n)
		run := 0.0
		for i := range a {
			a[i] = float64(r.Intn(10))
			run += a[i]
			p[i] = run
		}
		d := append([]float64(nil), a...)
		DDC{}.Aggregate(d)
		for k := 0; k < n; k++ {
			lo := RangeStart(n, k)
			if lo < 0 || lo > k {
				t.Fatalf("RangeStart(%d,%d) = %d out of [0,%d]", n, k, lo, k)
			}
			want := p[k]
			if lo > 0 {
				want -= p[lo-1]
			}
			if d[k] != want {
				t.Fatalf("n=%d: D[%d] = %v, want %v (lo=%d)", n, k, d[k], want, lo)
			}
		}
		if RangeStart(n, n-1) != 0 {
			t.Fatalf("RangeStart(%d, n-1) != 0", n)
		}
	}
}

func TestMultiDimDDCMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	shape := dims.Shape{9, 7, 5}
	data := make([]float64, shape.Size())
	for i := range data {
		data[i] = float64(r.Intn(6))
	}
	a, err := FromDense(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 120; trial++ {
		lo := make([]int, 3)
		hi := make([]int, 3)
		for i, n := range shape {
			lo[i] = r.Intn(n)
			hi[i] = lo[i] + r.Intn(n-lo[i])
		}
		b := dims.Box{Lo: lo, Hi: hi}
		got, err := a.Query(b)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		b.Iter(func(x []int) { want += data[shape.Flatten(x)] })
		if got != want {
			t.Fatalf("Query(%v) = %v, want %v", b, got, want)
		}
	}
}

func TestMultiDimCostBounds(t *testing.T) {
	shape := dims.Shape{64, 64}
	a, _ := molap.New(shape, Uniform(len(shape)))
	r := rand.New(rand.NewSource(8))
	qBound := int64(2 * MaxChainLen(64) * 2 * MaxChainLen(64))
	uBound := int64((MaxChainLen(64) + 1) * (MaxChainLen(64) + 1))
	for trial := 0; trial < 60; trial++ {
		lo := []int{r.Intn(64), r.Intn(64)}
		hi := []int{lo[0] + r.Intn(64-lo[0]), lo[1] + r.Intn(64-lo[1])}
		a.Accesses = 0
		if _, err := a.Query(dims.Box{Lo: lo, Hi: hi}); err != nil {
			t.Fatal(err)
		}
		if a.Accesses > qBound {
			t.Fatalf("DDC query cost %d exceeds bound %d", a.Accesses, qBound)
		}
		a.Accesses = 0
		a.Update([]int{r.Intn(64), r.Intn(64)}, 1)
		if a.Accesses > uBound {
			t.Fatalf("DDC update cost %d exceeds bound %d", a.Accesses, uBound)
		}
	}
}

func TestMaxChainLen(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5, 1024: 10}
	for n, want := range cases {
		if got := MaxChainLen(n); got != want {
			t.Errorf("MaxChainLen(%d) = %d, want %d", n, got, want)
		}
	}
	// The bound must hold for every k across a spread of sizes.
	for n := 1; n <= 200; n++ {
		bound := MaxChainLen(n)
		for k := 0; k < n; k++ {
			if got := len(DDC{}.PrefixTerms(nil, n, k)); got > bound {
				t.Fatalf("n=%d k=%d: chain len %d > bound %d", n, k, got, bound)
			}
		}
	}
}

// Property: DDC range query equals naive on random vectors/ranges.
func TestRangeEqualsNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(60) + 1
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(r.Intn(20) - 10)
		}
		d := append([]float64(nil), a...)
		DDC{}.Aggregate(d)
		l := r.Intn(n)
		u := l + r.Intn(n-l)
		want := 0.0
		for i := l; i <= u; i++ {
			want += a[i]
		}
		got := 0.0
		for _, tm := range (DDC{}).QueryTerms(nil, n, l, u) {
			got += tm.Factor * d[tm.Index]
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: random interleaved updates and queries on a 2-d DDC array
// agree with a naive shadow.
func TestShadowProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		shape := dims.Shape{r.Intn(9) + 1, r.Intn(9) + 1}
		a, err := molap.New(shape, Uniform(len(shape)))
		if err != nil {
			return false
		}
		shadow := make([]float64, shape.Size())
		for op := 0; op < 40; op++ {
			if r.Intn(2) == 0 {
				x := []int{r.Intn(shape[0]), r.Intn(shape[1])}
				d := float64(r.Intn(9) - 4)
				a.Update(x, d)
				shadow[shape.Flatten(x)] += d
			} else {
				lo := []int{r.Intn(shape[0]), r.Intn(shape[1])}
				hi := []int{lo[0] + r.Intn(shape[0]-lo[0]), lo[1] + r.Intn(shape[1]-lo[1])}
				b := dims.Box{Lo: lo, Hi: hi}
				got, err := a.Query(b)
				if err != nil {
					return false
				}
				want := 0.0
				b.Iter(func(x []int) { want += shadow[shape.Flatten(x)] })
				if got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestTechniqueInterface(t *testing.T) {
	var _ molap.Technique = DDC{}
	if (DDC{}).Name() != "DDC" {
		t.Errorf("Name() = %q", DDC{}.Name())
	}
}
