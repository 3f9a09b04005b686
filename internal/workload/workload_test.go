package workload

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"histcube/internal/dims"
)

func TestPaperSpecGeometry(t *testing.T) {
	cases := []struct {
		spec       Spec
		totalCells int
		tolerance  float64 // relative deviation from paper's cell count
		paperCells int
	}{
		{Weather4Spec, 180 * 360 * 9 * 246, 0.01, 143648037},
		{Weather6Spec, 18 * 36 * 9 * 9 * 9 * 296, 0.01, 139826700},
		{Gauss3Spec, 271 * 271 * 271, 0.0001, 19902511},
	}
	for _, c := range cases {
		got := c.spec.SliceShape.Size() * c.spec.TimeSize
		if got != c.totalCells {
			t.Errorf("%s: cells = %d, want %d", c.spec.Name, got, c.totalCells)
		}
		dev := math.Abs(float64(got)-float64(c.paperCells)) / float64(c.paperCells)
		if dev > c.tolerance {
			t.Errorf("%s: %d cells deviates %.4f from paper's %d", c.spec.Name, got, dev, c.paperCells)
		}
	}
}

func TestGenerateSortedAndInBounds(t *testing.T) {
	for _, spec := range []Spec{
		Weather4Spec.Scaled(0.001),
		Weather6Spec.Scaled(0.001),
		Gauss3Spec.Scaled(0.001),
	} {
		ds := Generate(spec)
		if len(ds.Updates) != spec.Points {
			t.Errorf("%s: %d updates, want %d", spec.Name, len(ds.Updates), spec.Points)
		}
		if !sort.SliceIsSorted(ds.Updates, func(i, j int) bool { return ds.Updates[i].Time < ds.Updates[j].Time }) {
			t.Errorf("%s: updates not in TT order", spec.Name)
		}
		for _, u := range ds.Updates {
			if u.Time < 0 || u.Time >= int64(spec.TimeSize) {
				t.Fatalf("%s: time %d out of [0,%d)", spec.Name, u.Time, spec.TimeSize)
			}
			if !spec.SliceShape.Contains(u.Coords) {
				t.Fatalf("%s: coords %v out of shape %v", spec.Name, u.Coords, spec.SliceShape)
			}
			if u.Delta <= 0 {
				t.Fatalf("%s: non-positive delta %v", spec.Name, u.Delta)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Gauss3Spec.Scaled(0.001))
	b := Generate(Gauss3Spec.Scaled(0.001))
	if len(a.Updates) != len(b.Updates) {
		t.Fatal("lengths differ")
	}
	for i := range a.Updates {
		ua, ub := a.Updates[i], b.Updates[i]
		if ua.Time != ub.Time || ua.Delta != ub.Delta {
			t.Fatalf("update %d differs", i)
		}
		for j := range ua.Coords {
			if ua.Coords[j] != ub.Coords[j] {
				t.Fatalf("update %d coord %d differs", i, j)
			}
		}
	}
}

func TestScaledPreservesDensity(t *testing.T) {
	for _, spec := range []Spec{Weather4Spec, Weather6Spec, Gauss3Spec} {
		s := spec.Scaled(0.001)
		origDensity := float64(spec.Points) / float64(spec.SliceShape.Size()*spec.TimeSize)
		newDensity := float64(s.Points) / float64(s.SliceShape.Size()*s.TimeSize)
		if newDensity < origDensity/3 || newDensity > origDensity*3 {
			t.Errorf("%s: scaled density %.5f vs original %.5f", spec.Name, newDensity, origDensity)
		}
		if len(s.SliceShape) != len(spec.SliceShape) {
			t.Errorf("%s: scaling changed dimensionality", spec.Name)
		}
	}
	// Scale >= 1 is identity.
	s := Weather4Spec.Scaled(1.5)
	if s.Name != Weather4Spec.Name || s.Points != Weather4Spec.Points {
		t.Error("Scaled(>=1) changed the spec")
	}
}

func TestCountSemantics(t *testing.T) {
	ds := Generate(Weather4Spec.Scaled(0.0005))
	for _, u := range ds.Updates {
		if u.Delta != 1 {
			t.Fatalf("weather4 is a COUNT cube; delta = %v", u.Delta)
		}
	}
}

func TestClusteredDataIsClustered(t *testing.T) {
	// gauss3's clusters must make per-slice update counts much more
	// variable than a uniform stream of the same size.
	spec := Gauss3Spec.Scaled(0.005)
	ds := Generate(spec)
	uni := Generate(Spec{
		Name:       "uniform",
		SliceShape: spec.SliceShape,
		TimeSize:   spec.TimeSize,
		Points:     spec.Points,
		Seed:       7,
	})
	variance := func(d *Dataset) float64 {
		counts := make([]float64, d.TimeSize)
		for _, u := range d.Updates {
			counts[u.Time]++
		}
		mean := float64(len(d.Updates)) / float64(d.TimeSize)
		v := 0.0
		for _, c := range counts {
			v += (c - mean) * (c - mean)
		}
		return v / float64(d.TimeSize)
	}
	if variance(ds) < 2*variance(uni) {
		t.Errorf("gauss3 per-slice variance %.1f not clearly above uniform %.1f", variance(ds), variance(uni))
	}
}

func TestBoxesValidAndMixed(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	shape := dims.Shape{40, 30, 9}
	boxes := Boxes(r, shape, 2000, false)
	full, point := 0, 0
	for _, b := range boxes {
		if err := b.Validate(shape); err != nil {
			t.Fatalf("invalid box %v: %v", b, err)
		}
		cells := 1
		for i := range b.Lo {
			cells *= b.Hi[i] - b.Lo[i] + 1
		}
		if cells == shape.Size() {
			full++
		}
		if cells == 1 {
			point++
		}
	}
	// With 10% full-domain per dimension, all-dims-full is ~0.1%; some
	// variety must exist.
	if full == 0 {
		t.Log("no full-domain boxes in 2000 (possible but unlikely)")
	}
	if point == 0 {
		t.Log("no point boxes in 2000 (possible but unlikely)")
	}
}

func TestSkewBoxesConcentrate(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	shape := dims.Shape{100, 100}
	skew := Boxes(r, shape, 3000, true)
	uni := Boxes(r, shape, 3000, false)
	inCenter := func(bs []dims.Box) int {
		n := 0
		for _, b := range bs {
			if b.Lo[0] >= 25 && b.Hi[0] < 75 && b.Lo[1] >= 25 && b.Hi[1] < 75 {
				n++
			}
		}
		return n
	}
	if inCenter(skew) < 2*inCenter(uni) {
		t.Errorf("skew queries not concentrated: %d vs %d in centre region", inCenter(skew), inCenter(uni))
	}
}

func TestTimeQueriesSplit(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	qs := TimeQueries(r, dims.Shape{20, 20}, 50, 500, false)
	for _, q := range qs {
		if q.TimeLo < 0 || q.TimeHi >= 50 || q.TimeLo > q.TimeHi {
			t.Fatalf("bad time range [%d,%d]", q.TimeLo, q.TimeHi)
		}
		if err := q.Box.Validate(dims.Shape{20, 20}); err != nil {
			t.Fatalf("bad box: %v", err)
		}
	}
}

// TestWriteCSVFormat pins the file format histgen writes: a geometry
// header, then one "time,c1,...,cd,delta" line per update.
func TestWriteCSVFormat(t *testing.T) {
	ds := &Dataset{
		Name:       "tiny",
		SliceShape: dims.Shape{2, 3},
		TimeSize:   4,
		Updates: []Update{
			{Time: 1, Coords: []int{0, 2}, Delta: 1.5},
			{Time: 3, Coords: []int{1, 0}, Delta: -2},
		},
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# name=tiny slice=2x3 time=4\n1,0,2,1.5\n3,1,0,-2\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteCSV wrote\n%s\nwant\n%s", got, want)
	}
}

// Property: generated boxes are always valid for their shape.
func TestBoxesValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := r.Intn(4) + 1
		shape := make(dims.Shape, d)
		for i := range shape {
			shape[i] = r.Intn(30) + 1
		}
		for _, b := range Boxes(r, shape, 50, r.Intn(2) == 0) {
			if b.Validate(shape) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNonEmptyAndDensity(t *testing.T) {
	ds := &Dataset{
		Name:       "tiny",
		SliceShape: dims.Shape{4},
		TimeSize:   4,
		Updates: []Update{
			{Time: 0, Coords: []int{1}, Delta: 1},
			{Time: 0, Coords: []int{1}, Delta: 1}, // duplicate cell
			{Time: 2, Coords: []int{3}, Delta: 1},
		},
	}
	if got := ds.NonEmpty(); got != 2 {
		t.Errorf("NonEmpty = %d, want 2", got)
	}
	if got := ds.Density(); got != 2.0/16 {
		t.Errorf("Density = %v", got)
	}
}

// TestCoordGenSkew: the Zipf generator concentrates mass on low
// coordinates (the hot-spot shard-imbalance model), stays in bounds,
// is deterministic per seed, and falls back to uniform for skew <= 1.
func TestCoordGenSkew(t *testing.T) {
	shape := dims.Shape{64, 64}
	const draws = 20000

	gen := CoordGen(rand.New(rand.NewSource(9)), shape, 1.5)
	zeros := 0
	for i := 0; i < draws; i++ {
		c := gen()
		for j, n := range shape {
			if c[j] < 0 || c[j] >= n {
				t.Fatalf("draw %d: coordinate %d = %d out of [0, %d)", i, j, c[j], n)
			}
		}
		if c[0] == 0 {
			zeros++
		}
	}
	// Uniform would put ~1/64 (~1.6%) of draws at coordinate 0; Zipf
	// with s=1.5 puts a large constant fraction there.
	if frac := float64(zeros) / draws; frac < 0.15 {
		t.Errorf("zipf(1.5): coordinate 0 drawn %.3f of the time, want a hot spot >= 0.15", frac)
	}

	uni := CoordGen(rand.New(rand.NewSource(9)), shape, 0)
	zeros = 0
	for i := 0; i < draws; i++ {
		if uni()[0] == 0 {
			zeros++
		}
	}
	if frac := float64(zeros) / draws; frac > 0.05 {
		t.Errorf("uniform: coordinate 0 drawn %.3f of the time, want ~1/64", frac)
	}

	// Same seed, same stream.
	a := CoordGen(rand.New(rand.NewSource(7)), shape, 2)
	b := CoordGen(rand.New(rand.NewSource(7)), shape, 2)
	for i := 0; i < 100; i++ {
		av, bv := a(), b()
		if av[0] != bv[0] || av[1] != bv[1] {
			t.Fatalf("draw %d: %v != %v with identical seeds", i, av, bv)
		}
	}
}

// TestGenerateSkewed: a Spec with Skew produces in-bounds, sorted,
// hot-spotted updates.
func TestGenerateSkewed(t *testing.T) {
	spec := Spec{
		Name:       "skewed",
		SliceShape: dims.Shape{32, 32},
		TimeSize:   64,
		Points:     5000,
		Clusters:   10, // overridden by Skew
		Skew:       1.8,
		Seed:       5,
	}
	ds := Generate(spec)
	if len(ds.Updates) != spec.Points {
		t.Fatalf("generated %d updates, want %d", len(ds.Updates), spec.Points)
	}
	zeros := 0
	for i, u := range ds.Updates {
		if i > 0 && u.Time < ds.Updates[i-1].Time {
			t.Fatal("updates not sorted by time")
		}
		for j, n := range spec.SliceShape {
			if u.Coords[j] < 0 || u.Coords[j] >= n {
				t.Fatalf("update %d: coordinate out of bounds: %v", i, u.Coords)
			}
		}
		if u.Coords[0] == 0 {
			zeros++
		}
	}
	if frac := float64(zeros) / float64(spec.Points); frac < 0.15 {
		t.Errorf("skewed spec: coordinate 0 seen %.3f of the time, want >= 0.15", frac)
	}
}
