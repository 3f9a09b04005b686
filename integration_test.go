package histcube

// Integration tests exercising whole pipelines across modules: the
// workload generators feeding the public cube, CSV round trips into
// ingestion, hierarchies over live cubes, and the framework variants
// against each other on one stream.

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"histcube/internal/agg"
	"histcube/internal/core"
	"histcube/internal/dims"
	"histcube/internal/oracle"
	"histcube/internal/paper/framework"
	"histcube/internal/paper/hierarchy"
	"histcube/internal/workload"
)

// TestWorkloadThroughPublicCube streams a scaled gauss3 data set into
// memory- and disk-backed cubes and checks a spread of
// queries against the oracle — the whole system end to end.
func TestWorkloadThroughPublicCube(t *testing.T) {
	ds := workload.Generate(workload.Gauss3Spec.Scaled(0.001))
	var ref oracle.Points
	for _, u := range ds.Updates {
		ref.Insert(u.Time, u.Coords, u.Delta)
	}
	for _, storage := range []core.Storage{
		{},
		{Kind: core.Disk, PageSize: 512},
	} {
		var cdims []core.Dim
		for i, n := range ds.SliceShape {
			cdims = append(cdims, core.Dim{Name: string(rune('a' + i)), Size: n})
		}
		cube, err := core.New(core.Config{Dims: cdims, Operator: agg.Sum, Storage: storage})
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range ds.Updates {
			if err := cube.Insert(u.Time, u.Coords, u.Delta); err != nil {
				t.Fatal(err)
			}
		}
		r := rand.New(rand.NewSource(101))
		qs := workload.TimeQueries(r, ds.SliceShape, ds.TimeSize, 60, false)
		for i, q := range qs {
			got, err := cube.Query(core.Range{TimeLo: q.TimeLo, TimeHi: q.TimeHi, Lo: q.Box.Lo, Hi: q.Box.Hi})
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.Query(q.TimeLo, q.TimeHi, q.Box.Lo, q.Box.Hi).Sum; got != want {
				t.Fatalf("storage %v query %d: got %v, want %v", storage.Kind, i, got, want)
			}
		}
	}
}

// TestCSVPipelineIntoCube writes a generated data set in the histgen
// CSV format and ingests the file line by line; totals must survive.
func TestCSVPipelineIntoCube(t *testing.T) {
	ds := workload.Generate(workload.Weather6Spec.Scaled(0.0005))
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	var cdims []core.Dim
	for i, n := range ds.SliceShape {
		cdims = append(cdims, core.Dim{Name: string(rune('a' + i)), Size: n})
	}
	cube, err := core.New(core.Config{Dims: cdims, Operator: agg.Sum})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(ds.Updates) {
		t.Fatalf("%d lines for %d updates", len(lines), len(ds.Updates))
	}
	wantTotal := 0.0
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		nums := make([]float64, len(f))
		for i, s := range f {
			if nums[i], err = strconv.ParseFloat(s, 64); err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
		}
		coords := make([]int, len(f)-2)
		for i := range coords {
			coords[i] = int(nums[1+i])
		}
		if err := cube.Insert(int64(nums[0]), coords, nums[len(f)-1]); err != nil {
			t.Fatal(err)
		}
		wantTotal += nums[len(f)-1]
	}
	full := dims.FullBox(ds.SliceShape)
	got, err := cube.Query(core.Range{TimeLo: 0, TimeHi: int64(ds.TimeSize), Lo: full.Lo, Hi: full.Hi})
	if err != nil {
		t.Fatal(err)
	}
	if got != wantTotal {
		t.Fatalf("total after CSV ingest = %v, want %v", got, wantTotal)
	}
}

// TestHierarchyRollupOverStream combines a live cube with a dimension
// hierarchy and time buckets: roll-ups must partition totals exactly.
func TestHierarchyRollupOverStream(t *testing.T) {
	cube, err := core.New(core.Config{
		Dims:     []core.Dim{{Name: "city", Size: 24}, {Name: "sku", Size: 10}},
		Operator: agg.Sum,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := hierarchy.New("geo", 24)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddUniformLevel("state", 4); err != nil {
		t.Fatal(err)
	}
	if err := h.AddUniformLevel("region", 3); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(103))
	total := 0.0
	for i := 0; i < 2000; i++ {
		v := float64(r.Intn(50) + 1)
		if err := cube.Insert(int64(i/100), []int{r.Intn(24), r.Intn(10)}, v); err != nil {
			t.Fatal(err)
		}
		total += v
	}
	q := func(lo, hi []int) (float64, error) {
		return cube.Query(core.Range{TimeLo: 0, TimeHi: 30, Lo: lo, Hi: hi})
	}
	for _, level := range []string{"state", "region", ""} {
		_, aggs, err := hierarchy.GroupBy(q, []int{0, 0}, []int{23, 9}, 0, h, level)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, a := range aggs {
			sum += a
		}
		if sum != total {
			t.Fatalf("level %q roll-up sums to %v, want %v", level, sum, total)
		}
	}
	// Time buckets partition the total too.
	_, baggs, err := hierarchy.TimeBuckets(func(tLo, tHi int64) (float64, error) {
		return cube.Query(core.Range{TimeLo: tLo, TimeHi: tHi, Lo: []int{0, 0}, Hi: []int{23, 9}})
	}, 0, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, a := range baggs {
		sum += a
	}
	if sum != total {
		t.Fatalf("time buckets sum to %v, want %v", sum, total)
	}
}

// TestFrameworkVariantsOnOneStream runs the same 1-d append stream
// through every framework instance source and the MOLAP cube; all five
// answers must be identical on every query.
func TestFrameworkVariantsOnOneStream(t *testing.T) {
	mv, err := framework.NewMVBTSource()
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]*framework.AppendOnly{}
	for name, src := range map[string]framework.InstanceSource{
		"btree-clone": framework.NewCloneSource(func() framework.Cloneable { return framework.NewBTreeStructure() }),
		"treap":       framework.NewTreapSource(),
		"mvbt":        mv,
	} {
		a, err := framework.New(framework.Config{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		variants[name] = a
	}
	cube, err := core.New(core.Config{Dims: []core.Dim{{Name: "loc", Size: 64}}, Operator: agg.Sum})
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(104))
	now := int64(0)
	for i := 0; i < 600; i++ {
		if r.Intn(3) == 0 {
			now += int64(r.Intn(4) + 1)
		}
		x := r.Intn(64)
		v := float64(r.Intn(9) + 1)
		for name, a := range variants {
			if err := a.Update(now, []int{x}, v); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if err := cube.Insert(now, []int{x}, v); err != nil {
			t.Fatal(err)
		}
		if i%9 == 0 {
			lo := r.Intn(64)
			hi := lo + r.Intn(64-lo)
			tLo := int64(r.Intn(int(now) + 2))
			tHi := tLo + int64(r.Intn(int(now)+2))
			ref, err := cube.Query(core.Range{TimeLo: tLo, TimeHi: tHi, Lo: []int{lo}, Hi: []int{hi}})
			if err != nil {
				t.Fatal(err)
			}
			for name, a := range variants {
				got, err := a.Query(tLo, tHi, dims.NewBox([]int{lo}, []int{hi}))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got != ref {
					t.Fatalf("op %d: %s = %v, cube = %v", i, name, got, ref)
				}
			}
		}
	}
}
