package ecube

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"histcube/internal/ddc"
	"histcube/internal/dims"
	"histcube/internal/prefix"
)

// TestFigure6Example replays the paper's Figure 6 trace: a 4x8 time
// slice of ones in DDC form; the prefix query PS(2,6) converts exactly
// the cells the trace lists, with the values the trace computes.
func TestFigure6Example(t *testing.T) {
	shape := dims.Shape{4, 8}
	data := make([]float64, shape.Size())
	for i := range data {
		data[i] = 1
	}
	a, err := FromDense(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	got := prefixAt(a, []int{2, 6})
	if got != 21 {
		t.Fatalf("PS(2,6) = %v, want 21", got)
	}
	// The trace converts: (1,3)=8, (1,5)=12, (1,6)=14, (2,3)=12,
	// (2,5)=18, (2,6)=21.
	wantPS := map[[2]int]float64{
		{1, 3}: 8, {1, 5}: 12, {1, 6}: 14, {2, 3}: 12, {2, 5}: 18, {2, 6}: 21,
	}
	for xy, want := range wantPS {
		off := shape.Flatten(xy[:])
		if !a.ps[off] {
			t.Errorf("cell %v not converted to PS", xy)
		}
		if a.cells[off] != want {
			t.Errorf("cell %v = %v, want %v", xy, a.cells[off], want)
		}
	}
	if got := a.Converted(); got != len(wantPS) {
		t.Errorf("converted %d cells, want %d", got, len(wantPS))
	}
	// "If the next query computes the sum for range ((0,0),(2,3)) it
	// returns after the first cell access."
	a.Accesses = 0
	v, err := a.Query(dims.NewBox([]int{0, 0}, []int{2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if v != 12 {
		t.Fatalf("q((0,0),(2,3)) = %v, want 12", v)
	}
	if a.Accesses != 1 {
		t.Fatalf("follow-up query cost %d accesses, want 1", a.Accesses)
	}
}

func TestFromDDCRejectsNonDDC(t *testing.T) {
	a, err := prefix.FromDense([]float64{1, 2, 3, 4}, dims.Shape{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromDDC(a); err == nil {
		t.Error("FromDDC accepted a PS array")
	}
}

func TestPrefixQueryMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	shape := dims.Shape{7, 9}
	data := make([]float64, shape.Size())
	for i := range data {
		data[i] = float64(r.Intn(8))
	}
	a, err := FromDense(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	dims.FullBox(shape).Iter(func(x []int) {
		want := 0.0
		dims.NewBox([]int{0, 0}, x).Iter(func(y []int) {
			want += data[shape.Flatten(y)]
		})
		// Query twice: once converting, once from the PS value.
		if got := prefixAt(a, x); got != want {
			t.Fatalf("PS(%v) = %v, want %v", x, got, want)
		}
		if got := prefixAt(a, x); got != want {
			t.Fatalf("repeat PS(%v) = %v, want %v", x, got, want)
		}
	})
	// After touching every prefix, the whole array must be PS.
	if a.Converted() != shape.Size() {
		t.Errorf("converted %d of %d cells", a.Converted(), shape.Size())
	}
}

func TestRangeQueryMatchesNaive3D(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	shape := dims.Shape{6, 5, 7}
	data := make([]float64, shape.Size())
	for i := range data {
		data[i] = float64(r.Intn(5))
	}
	a, err := FromDense(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
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
			t.Fatalf("trial %d: Query(%v) = %v, want %v", trial, b, got, want)
		}
	}
}

func TestQueryRejectsInvalidBox(t *testing.T) {
	a, _ := FromDense([]float64{1, 2, 3, 4}, dims.Shape{2, 2})
	if _, err := a.Query(dims.NewBox([]int{1, 0}, []int{0, 1})); err == nil {
		t.Error("inverted box accepted")
	}
}

func TestConvergenceReducesCost(t *testing.T) {
	// Repeatedly querying the same region must converge to the PS
	// bound of 2^d accesses.
	r := rand.New(rand.NewSource(13))
	shape := dims.Shape{64, 64}
	data := make([]float64, shape.Size())
	for i := range data {
		data[i] = float64(r.Intn(4))
	}
	a, err := FromDense(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	b := dims.NewBox([]int{13, 22}, []int{40, 59})
	a.Accesses = 0
	if _, err := a.Query(b); err != nil {
		t.Fatal(err)
	}
	first := a.Accesses
	a.Accesses = 0
	if _, err := a.Query(b); err != nil {
		t.Fatal(err)
	}
	second := a.Accesses
	if second > 4 {
		t.Errorf("second identical query cost %d, want <= 2^2", second)
	}
	if first <= second {
		t.Errorf("no convergence: first %d, second %d", first, second)
	}
}

func TestWorstCaseNoWorseThanDDCChains(t *testing.T) {
	// A single prefix query on a fresh eCube converts at most
	// prod_i chainlen_i distinct cells — the DDC prefix cost — because
	// the recursion is restricted to the DDC index sets (the paper's
	// worst-case claim counts distinct cells; even its own Fig. 6
	// trace re-reads already-converted cells). Total accesses are
	// bounded by one load per recursive call: 1 + (2^d - 1) per
	// converted cell.
	shape := dims.Shape{32, 17}
	data := make([]float64, shape.Size())
	for i := range data {
		data[i] = 1
	}
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 40; trial++ {
		a, err := FromDense(data, shape)
		if err != nil {
			t.Fatal(err)
		}
		x := []int{r.Intn(shape[0]), r.Intn(shape[1])}
		bound := int64(len(ddc.DDC{}.PrefixTerms(nil, shape[0], x[0])) *
			len(ddc.DDC{}.PrefixTerms(nil, shape[1], x[1])))
		a.Accesses = 0
		prefixAt(a, x)
		if a.Conversions > bound {
			t.Fatalf("prefix %v converted %d cells, DDC chain bound %d", x, a.Conversions, bound)
		}
		if a.Accesses > 1+3*bound {
			t.Fatalf("prefix %v cost %d exceeds call bound %d", x, a.Accesses, 1+3*bound)
		}
	}
}

func TestFullConversionMatchesPSArray(t *testing.T) {
	// After converting every cell, the eCube's cell contents must be
	// exactly the PS pre-aggregation of the original array.
	r := rand.New(rand.NewSource(15))
	shape := dims.Shape{5, 6}
	data := make([]float64, shape.Size())
	for i := range data {
		data[i] = float64(r.Intn(9))
	}
	a, err := FromDense(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	dims.FullBox(shape).Iter(func(x []int) { prefixAt(a, x) })
	ps, err := prefix.FromDense(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	want := ps.Cells()
	for off := range want {
		if a.cells[off] != want[off] {
			t.Fatalf("cell %d = %v, want PS value %v", off, a.cells[off], want[off])
		}
	}
}

// Property: interleaved random prefix and range queries on a random
// eCube always match a naive shadow, regardless of conversion state.
func TestInterleavedQueriesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		shape := dims.Shape{r.Intn(10) + 1, r.Intn(10) + 1}
		data := make([]float64, shape.Size())
		for i := range data {
			data[i] = float64(r.Intn(12) - 6)
		}
		a, err := FromDense(data, shape)
		if err != nil {
			return false
		}
		for q := 0; q < 25; q++ {
			lo := []int{r.Intn(shape[0]), r.Intn(shape[1])}
			hi := []int{lo[0] + r.Intn(shape[0]-lo[0]), lo[1] + r.Intn(shape[1]-lo[1])}
			b := dims.Box{Lo: lo, Hi: hi}
			got, err := a.Query(b)
			if err != nil {
				return false
			}
			want := 0.0
			b.Iter(func(x []int) { want += data[shape.Flatten(x)] })
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: a 4-d eCube (the weather4 slice dimensionality) matches
// naive on random boxes.
func TestHighDimProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		shape := dims.Shape{r.Intn(4) + 1, r.Intn(4) + 1, r.Intn(4) + 1, r.Intn(4) + 1}
		data := make([]float64, shape.Size())
		for i := range data {
			data[i] = float64(r.Intn(4))
		}
		a, err := FromDense(data, shape)
		if err != nil {
			return false
		}
		for q := 0; q < 10; q++ {
			lo := make([]int, 4)
			hi := make([]int, 4)
			for i, n := range shape {
				lo[i] = r.Intn(n)
				hi[i] = lo[i] + r.Intn(n-lo[i])
			}
			b := dims.Box{Lo: lo, Hi: hi}
			got, err := a.Query(b)
			if err != nil {
				return false
			}
			want := 0.0
			b.Iter(func(x []int) { want += data[shape.Flatten(x)] })
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// decliningStore rejects all StorePS persists, like the disk store of
// Section 3.5; the engine must fall back to per-query memoisation and
// stay within a polynomial access budget instead of recursing
// exponentially.
type decliningStore struct {
	cells []float64
	loads int64
}

func (d *decliningStore) Load(off int) (float64, bool) {
	d.loads++
	return d.cells[off], false
}

func (d *decliningStore) StorePS(int, float64) bool { return false }

func TestEngineMemoisesWhenStoreDeclines(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	shape := dims.Shape{64, 64, 16}
	data := make([]float64, shape.Size())
	for i := range data {
		data[i] = float64(r.Intn(5))
	}
	arr, err := ddc.FromDense(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	ds := &decliningStore{cells: arr.Cells()}
	en, err := NewEngine(shape)
	if err != nil {
		t.Fatal(err)
	}
	chains := ddc.MaxChainLen(64) * ddc.MaxChainLen(64) * ddc.MaxChainLen(16)
	for trial := 0; trial < 30; trial++ {
		lo := make([]int, 3)
		hi := make([]int, 3)
		for i, n := range shape {
			lo[i] = r.Intn(n)
			hi[i] = lo[i] + r.Intn(n-lo[i])
		}
		b := dims.Box{Lo: lo, Hi: hi}
		ds.loads = 0
		got, err := en.RangeCtx(context.Background(), nil, ds, b, new(Scratch))
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		b.Iter(func(x []int) { want += data[shape.Flatten(x)] })
		if got != want {
			t.Fatalf("Range(%v) = %v, want %v", b, got, want)
		}
		// Memoisation bound: per corner prefix, at most one load per
		// distinct chain-product cell plus one memo-missing re-load per
		// recursion child; 2^d corners. Without the memo this blows up
		// combinatorially (Delannoy growth) and the budget fails.
		budget := int64(8 * 8 * chains)
		if ds.loads > budget {
			t.Fatalf("declining store: %d loads exceeds memo budget %d", ds.loads, budget)
		}
	}
}

// TestEngineCounters pins the engine's cumulative observability
// counters: Loads counts every CellStore.Load, Converts counts only
// persisted DDC->PS rewrites and therefore matches the Array's own
// conversion counter and its converted-cell census.
func TestEngineCounters(t *testing.T) {
	shape := dims.Shape{8, 8}
	data := make([]float64, shape.Size())
	for i := range data {
		data[i] = float64(i % 7)
	}
	a, err := FromDense(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	if a.en.Loads() != 0 || a.en.Converts() != 0 {
		t.Fatalf("fresh engine counters: loads=%d converts=%d", a.en.Loads(), a.en.Converts())
	}
	if _, err := a.Query(dims.Box{Lo: []int{1, 1}, Hi: []int{6, 6}}); err != nil {
		t.Fatal(err)
	}
	loads1, conv1 := a.en.Loads(), a.en.Converts()
	if loads1 == 0 || conv1 == 0 {
		t.Fatalf("counters did not move: loads=%d converts=%d", loads1, conv1)
	}
	if conv1 != a.Conversions {
		t.Errorf("engine converts %d != array conversions %d", conv1, a.Conversions)
	}
	if int(conv1) != a.Converted() {
		t.Errorf("engine converts %d != converted cells %d", conv1, a.Converted())
	}
	// Re-running the same query hits only PS cells: loads still grow,
	// conversions must not.
	if _, err := a.Query(dims.Box{Lo: []int{1, 1}, Hi: []int{6, 6}}); err != nil {
		t.Fatal(err)
	}
	if a.en.Converts() != conv1 {
		t.Errorf("repeat query converted again: %d -> %d", conv1, a.en.Converts())
	}
	if a.en.Loads() <= loads1 {
		t.Errorf("repeat query loads did not grow: %d -> %d", loads1, a.en.Loads())
	}
}

// prefixAt evaluates one prefix P[x] with the eCube recursion.
func prefixAt(a *Array, x []int) float64 {
	ctx := evalCtx{cctx: context.Background()}
	return a.en.prefixRec(a, x, &ctx)
}
