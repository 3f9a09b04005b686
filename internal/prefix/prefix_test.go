package prefix

import (
	"math/rand"
	"testing"
	"testing/quick"

	"histcube/internal/dims"
	"histcube/internal/molap"
)

func TestAggregateDisaggregateRoundTrip(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5}
	want := append([]float64(nil), v...)
	PS{}.Aggregate(v)
	expect := []float64{3, 4, 8, 9, 14}
	for i := range v {
		if v[i] != expect[i] {
			t.Fatalf("Aggregate[%d] = %v, want %v", i, v[i], expect[i])
		}
	}
	PS{}.Disaggregate(v)
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("round trip[%d] = %v, want %v", i, v[i], want[i])
		}
	}
}

func TestAggregateEmptyAndSingle(t *testing.T) {
	PS{}.Aggregate(nil)
	PS{}.Disaggregate(nil)
	v := []float64{7}
	PS{}.Aggregate(v)
	if v[0] != 7 {
		t.Errorf("single-cell aggregate = %v", v[0])
	}
}

func TestQueryTermsAtMostTwo(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for l := 0; l < n; l++ {
			for u := l; u < n; u++ {
				terms := PS{}.QueryTerms(nil, n, l, u)
				if len(terms) > 2 {
					t.Fatalf("QueryTerms(n=%d,%d,%d) has %d terms", n, l, u, len(terms))
				}
				if l == 0 && len(terms) != 1 {
					t.Fatalf("prefix range should use one term, got %d", len(terms))
				}
			}
		}
	}
}

func TestQueryTermsCorrectOnVector(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 17
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(r.Intn(10))
	}
	p := append([]float64(nil), a...)
	PS{}.Aggregate(p)
	for l := 0; l < n; l++ {
		for u := l; u < n; u++ {
			want := 0.0
			for i := l; i <= u; i++ {
				want += a[i]
			}
			got := 0.0
			for _, tm := range (PS{}).QueryTerms(nil, n, l, u) {
				got += tm.Factor * p[tm.Index]
			}
			if got != want {
				t.Fatalf("q(%d,%d) = %v, want %v", l, u, got, want)
			}
		}
	}
}

func TestUpdateCellsSuffix(t *testing.T) {
	cells := PS{}.UpdateCells(nil, 6, 2)
	if len(cells) != 4 {
		t.Fatalf("UpdateCells(6,2) has %d cells", len(cells))
	}
	for i, c := range cells {
		if c != 2+i {
			t.Fatalf("UpdateCells(6,2)[%d] = %d", i, c)
		}
	}
}

func TestArrayMatchesNaiveMultiDim(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	shape := dims.Shape{6, 5, 4}
	data := make([]float64, shape.Size())
	for i := range data {
		data[i] = float64(r.Intn(7))
	}
	a, err := FromDense(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
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

func TestQueryCostBound(t *testing.T) {
	// A d-dimensional PS query costs at most 2^d cell accesses.
	shape := dims.Shape{16, 16, 16}
	a, _ := molap.New(shape, uniform(len(shape)))
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		lo := make([]int, 3)
		hi := make([]int, 3)
		for i, n := range shape {
			lo[i] = r.Intn(n)
			hi[i] = lo[i] + r.Intn(n-lo[i])
		}
		a.Accesses = 0
		if _, err := a.Query(dims.Box{Lo: lo, Hi: hi}); err != nil {
			t.Fatal(err)
		}
		if a.Accesses > 8 {
			t.Fatalf("PS query cost %d exceeds 2^3", a.Accesses)
		}
	}
}

func TestUpdateMatchesQueriesAfterward(t *testing.T) {
	shape := dims.Shape{8, 8}
	a, _ := molap.New(shape, uniform(len(shape)))
	a.Update([]int{3, 4}, 2.5)
	a.Update([]int{0, 0}, 1)
	got, _ := a.Query(dims.FullBox(shape))
	if got != 3.5 {
		t.Errorf("full query after updates = %v, want 3.5", got)
	}
	got, _ = a.Query(dims.NewBox([]int{3, 4}, []int{3, 4}))
	if got != 2.5 {
		t.Errorf("point query = %v, want 2.5", got)
	}
	got, _ = a.Query(dims.NewBox([]int{1, 1}, []int{2, 7}))
	if got != 0 {
		t.Errorf("empty-region query = %v, want 0", got)
	}
}

// Property: PS range evaluation equals a naive sum for random vectors
// and ranges.
func TestRangeEqualsNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(30) + 1
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(r.Intn(20) - 10)
		}
		p := append([]float64(nil), a...)
		PS{}.Aggregate(p)
		l := r.Intn(n)
		u := l + r.Intn(n-l)
		want := 0.0
		for i := l; i <= u; i++ {
			want += a[i]
		}
		got := 0.0
		for _, tm := range (PS{}).QueryTerms(nil, n, l, u) {
			got += tm.Factor * p[tm.Index]
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: an update through UpdateCells keeps the aggregated vector
// consistent with re-aggregating the updated original.
func TestUpdateConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(20) + 1
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(r.Intn(10))
		}
		p := append([]float64(nil), a...)
		PS{}.Aggregate(p)
		i := r.Intn(n)
		delta := float64(r.Intn(11) - 5)
		for _, c := range (PS{}).UpdateCells(nil, n, i) {
			p[c] += delta
		}
		a[i] += delta
		want := append([]float64(nil), a...)
		PS{}.Aggregate(want)
		for k := range p {
			if p[k] != want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTechniqueName(t *testing.T) {
	var _ molap.Technique = PS{}
	if (PS{}).Name() != "PS" {
		t.Errorf("Name() = %q", PS{}.Name())
	}
}
