package directory

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func implementations() map[string]func() *Array {
	return map[string]func() *Array{
		"array": NewArray,
	}
}

func TestEmptyDirectory(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			if d.Len() != 0 {
				t.Error("non-zero length")
			}
			if _, _, ok := d.Latest(); ok {
				t.Error("Latest on empty returned ok")
			}
			if _, ok := d.Floor(100); ok {
				t.Error("Floor on empty returned ok")
			}
		})
	}
}

func TestAppendAndLookup(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			times := []int64{3, 7, 10, 25}
			for i, tv := range times {
				idx, err := d.Append(tv)
				if err != nil {
					t.Fatal(err)
				}
				if idx != i {
					t.Fatalf("Append(%d) = index %d, want %d", tv, idx, i)
				}
			}
			if d.Len() != 4 {
				t.Fatalf("Len = %d", d.Len())
			}
			idx, tv, ok := d.Latest()
			if !ok || idx != 3 || tv != 25 {
				t.Fatalf("Latest = %d,%d,%v", idx, tv, ok)
			}
			cases := []struct {
				q    int64
				want int
				ok   bool
			}{
				{2, 0, false}, {3, 0, true}, {5, 0, true}, {7, 1, true},
				{9, 1, true}, {10, 2, true}, {24, 2, true}, {25, 3, true}, {1000, 3, true},
			}
			for _, c := range cases {
				got, ok := d.Floor(c.q)
				if ok != c.ok || (ok && got != c.want) {
					t.Errorf("Floor(%d) = %d,%v want %d,%v", c.q, got, ok, c.want, c.ok)
				}
			}
			for i, tv := range times {
				if d.Time(i) != tv {
					t.Errorf("Time(%d) = %d", i, d.Time(i))
				}
			}
		})
	}
}

func TestAppendRejectsNonIncreasing(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			if _, err := d.Append(5); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Append(5); !errors.Is(err, ErrNotAppendOnly) {
				t.Errorf("equal time: err = %v", err)
			}
			if _, err := d.Append(4); !errors.Is(err, ErrNotAppendOnly) {
				t.Errorf("smaller time: err = %v", err)
			}
		})
	}
}

// Property: the array directory agrees with a sorted-slice reference for
// random occurring-time sequences.
func TestDirectoriesAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewArray()
		var times []int64
		cur := int64(0)
		for i := 0; i < 80; i++ {
			cur += int64(r.Intn(10) + 1)
			if _, err := a.Append(cur); err != nil {
				return false
			}
			times = append(times, cur)
		}
		for q := 0; q < 60; q++ {
			probe := int64(r.Intn(int(cur) + 20))
			want := sort.Search(len(times), func(i int) bool { return times[i] > probe }) - 1
			ga, oka := a.Floor(probe)
			if want < 0 {
				if oka {
					return false
				}
				continue
			}
			if !oka || ga != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
