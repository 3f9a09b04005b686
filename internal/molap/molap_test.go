package molap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"histcube/internal/dims"
)

func naiveRange(data []float64, shape dims.Shape, b dims.Box) float64 {
	total := 0.0
	b.Iter(func(x []int) {
		total += data[shape.Flatten(x)]
	})
	return total
}

func randBox(r *rand.Rand, s dims.Shape) dims.Box {
	lo := make([]int, len(s))
	hi := make([]int, len(s))
	for i, n := range s {
		lo[i] = r.Intn(n)
		hi[i] = lo[i] + r.Intn(n-lo[i])
	}
	return dims.Box{Lo: lo, Hi: hi}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(dims.Shape{}, nil); err == nil {
		t.Error("New with empty shape succeeded")
	}
	if _, err := New(dims.Shape{4}, []Technique{Raw{}, Raw{}}); err == nil {
		t.Error("New with mismatched technique count succeeded")
	}
	if _, err := FromDense([]float64{1, 2}, dims.Shape{3}, []Technique{Raw{}}); err == nil {
		t.Error("FromDense with wrong data length succeeded")
	}
}

func TestRawArrayMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	shape := dims.Shape{5, 6}
	data := make([]float64, shape.Size())
	for i := range data {
		data[i] = float64(r.Intn(10))
	}
	a, err := FromDense(data, shape, []Technique{Raw{}, Raw{}})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		b := randBox(r, shape)
		got, err := a.Query(b)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveRange(data, shape, b)
		if got != want {
			t.Fatalf("Query(%v) = %v, want %v", b, got, want)
		}
	}
}

func TestRawUpdateTouchesOneCell(t *testing.T) {
	a, _ := New(dims.Shape{4, 4}, []Technique{Raw{}, Raw{}})
	a.Accesses = 0
	a.Update([]int{1, 2}, 5)
	if a.Accesses != 1 {
		t.Errorf("raw update touched %d cells, want 1", a.Accesses)
	}
	got, _ := a.Query(dims.NewBox([]int{1, 2}, []int{1, 2}))
	if got != 5 {
		t.Errorf("point query = %v, want 5", got)
	}
}

func TestQueryRejectsInvalidBox(t *testing.T) {
	a, _ := New(dims.Shape{4}, []Technique{Raw{}})
	if _, err := a.Query(dims.NewBox([]int{2}, []int{1})); err == nil {
		t.Error("inverted box accepted")
	}
	if _, err := a.Query(dims.NewBox([]int{0}, []int{4})); err == nil {
		t.Error("out-of-range box accepted")
	}
}

func TestUpdatePanicsOutsideShape(t *testing.T) {
	a, _ := New(dims.Shape{4}, []Technique{Raw{}})
	defer func() {
		if recover() == nil {
			t.Error("update outside shape did not panic")
		}
	}()
	a.Update([]int{4}, 1)
}

func TestCloneIsIndependent(t *testing.T) {
	a, _ := New(dims.Shape{3}, []Technique{Raw{}})
	a.Update([]int{0}, 1)
	c := a.Clone()
	c.Update([]int{0}, 10)
	got, _ := a.Query(dims.NewBox([]int{0}, []int{0}))
	if got != 1 {
		t.Errorf("clone shares storage: original reads %v", got)
	}
}

func TestDenseRoundTripRaw(t *testing.T) {
	data := []float64{3, 1, 4, 1, 5, 9}
	a, _ := FromDense(data, dims.Shape{2, 3}, []Technique{Raw{}, Raw{}})
	got := a.Dense()
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("Dense()[%d] = %v, want %v", i, got[i], data[i])
		}
	}
}

func TestPrefixQueryEqualsBoxQuery(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	shape := dims.Shape{4, 5}
	data := make([]float64, shape.Size())
	for i := range data {
		data[i] = float64(r.Intn(5))
	}
	a, _ := FromDense(data, shape, []Technique{Raw{}, Raw{}})
	dims.FullBox(shape).Iter(func(x []int) {
		p := a.PrefixQuery(x)
		want := naiveRange(data, shape, dims.NewBox([]int{0, 0}, x))
		if p != want {
			t.Fatalf("PrefixQuery(%v) = %v, want %v", x, p, want)
		}
	})
}

// Property: updates followed by queries agree with a naive shadow
// array, for random update/query interleavings on a Raw array (the
// combination machinery itself, independent of any technique).
func TestUpdateQueryAgainstShadowProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		shape := dims.Shape{r.Intn(4) + 1, r.Intn(4) + 1}
		a, err := New(shape, []Technique{Raw{}, Raw{}})
		if err != nil {
			return false
		}
		shadow := make([]float64, shape.Size())
		for op := 0; op < 30; op++ {
			if r.Intn(2) == 0 {
				x := []int{r.Intn(shape[0]), r.Intn(shape[1])}
				d := float64(r.Intn(9) - 4)
				a.Update(x, d)
				shadow[shape.Flatten(x)] += d
			} else {
				b := randBox(r, shape)
				got, err := a.Query(b)
				if err != nil || math.Abs(got-naiveRange(shadow, shape, b)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAccessCounterAdvances(t *testing.T) {
	a, _ := New(dims.Shape{8}, []Technique{Raw{}})
	before := a.Accesses
	if _, err := a.Query(dims.NewBox([]int{2}, []int{5})); err != nil {
		t.Fatal(err)
	}
	if a.Accesses-before != 4 {
		t.Errorf("raw query over 4 cells counted %d accesses", a.Accesses-before)
	}
}

// Dense returns the original (disaggregated) array values, leaving the
// receiver unchanged.
func (a *Array) Dense() []float64 {
	c := a.Clone()
	c.disaggregateAll()
	return c.cells
}

// PrefixQuery computes P[x] = aggregate over the box [0..x] in every
// dimension, using the per-dimension QueryTerms over [0, x[d]].
func (a *Array) PrefixQuery(x []int) float64 {
	sets := make([][]Term, len(a.shape))
	for d, t := range a.techs {
		sets[d] = t.QueryTerms(nil, a.shape[d], 0, x[d])
	}
	return a.combineTerms(sets)
}
