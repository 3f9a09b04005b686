package appendcube

import (
	"errors"
	"math/rand"
	"testing"

	"histcube/internal/dims"
	"histcube/internal/pager"
)

func newTieredCube(t testing.TB, shape dims.Shape) (*Cube, *TieredStore) {
	t.Helper()
	pg, err := pager.New(pager.NewMemBackend(64), 64)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTieredStore(shape.Size(), NewDiskStore(shape.Size(), pg))
	c, err := New(Config{SliceShape: shape, Store: ts})
	if err != nil {
		t.Fatal(err)
	}
	return c, ts
}

func TestAgeRequiresTieredStore(t *testing.T) {
	c, _ := New(Config{SliceShape: dims.Shape{4}})
	if _, err := c.Age(1); !errors.Is(err, ErrNotTiered) {
		t.Errorf("err = %v", err)
	}
}

func TestAgeMovesSlicesAndKeepsAnswersExact(t *testing.T) {
	shape := dims.Shape{6, 5}
	c, ts := newTieredCube(t, shape)
	r := rand.New(rand.NewSource(91))
	sh := &shadow{shape: shape}
	now := int64(0)
	for i := 0; i < 400; i++ {
		if r.Intn(4) == 0 {
			now++
		}
		x := []int{r.Intn(6), r.Intn(5)}
		v := float64(r.Intn(9) - 4)
		if _, err := c.Update(now, x, v); err != nil {
			t.Fatal(err)
		}
		sh.add(now, x, v)
	}
	half := c.NumSlices() / 2
	demoted, err := c.Age(half)
	if err != nil {
		t.Fatal(err)
	}
	if demoted != half {
		t.Fatalf("demoted %d, want %d", demoted, half)
	}
	if ts.boundary != half {
		t.Fatalf("boundary = %d", ts.boundary)
	}
	// Hot storage for retired slices is freed.
	for s := 0; s < half; s++ {
		if ts.hot.vals[s] != nil {
			t.Fatalf("slice %d still resident after retirement", s)
		}
	}
	// Queries across the hot/cold boundary stay exact.
	for q := 0; q < 200; q++ {
		b := randBox(r, shape)
		tLo := int64(r.Intn(int(now) + 2))
		tHi := tLo + int64(r.Intn(int(now)+2))
		got, err := c.Query(tLo, tHi, b)
		if err != nil {
			t.Fatal(err)
		}
		if want := sh.query(tLo, tHi, b); got != want {
			t.Fatalf("query [%d,%d] %v = %v, want %v", tLo, tHi, b, got, want)
		}
	}
	// Ingest continues after aging; queries still exact.
	for i := 0; i < 200; i++ {
		if r.Intn(4) == 0 {
			now++
		}
		x := []int{r.Intn(6), r.Intn(5)}
		v := float64(r.Intn(9) - 4)
		if _, err := c.Update(now, x, v); err != nil {
			t.Fatal(err)
		}
		sh.add(now, x, v)
	}
	for q := 0; q < 100; q++ {
		b := randBox(r, shape)
		tLo := int64(r.Intn(int(now) + 2))
		tHi := tLo + int64(r.Intn(int(now)+2))
		got, err := c.Query(tLo, tHi, b)
		if err != nil {
			t.Fatal(err)
		}
		if want := sh.query(tLo, tHi, b); got != want {
			t.Fatalf("post-age query = %v, want %v", got, want)
		}
	}
}

func TestAgeNeverRetiresLatest(t *testing.T) {
	shape := dims.Shape{4}
	c, ts := newTieredCube(t, shape)
	for i := 0; i < 30; i++ {
		if _, err := c.Update(int64(i/10), []int{i % 4}, 1); err != nil {
			t.Fatal(err)
		}
	}
	demoted, err := c.Age(100)
	if err != nil {
		t.Fatal(err)
	}
	if demoted != c.NumSlices()-1 {
		t.Fatalf("demoted %d of %d slices", demoted, c.NumSlices())
	}
	if ts.boundary != c.NumSlices()-1 {
		t.Fatalf("boundary %d reached the latest slice", ts.boundary)
	}
	// Aging again is a no-op until new slices appear.
	demoted, err = c.Age(5)
	if err != nil || demoted != 0 {
		t.Fatalf("re-age: %d, %v", demoted, err)
	}
	if _, err := c.Update(100, []int{0}, 1); err != nil {
		t.Fatal(err)
	}
	demoted, err = c.Age(5)
	if err != nil || demoted != 1 {
		t.Fatalf("age after new slice: %d, %v", demoted, err)
	}
}

func TestTieredWriteToRetiredSliceFails(t *testing.T) {
	shape := dims.Shape{4}
	c, ts := newTieredCube(t, shape)
	for i := 0; i < 20; i++ {
		if _, err := c.Update(int64(i/5), []int{i % 4}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Age(1); err != nil {
		t.Fatal(err)
	}
	if err := ts.Write(0, 0, 1, DDCValue); err == nil {
		t.Error("write to retired slice accepted")
	}
}
