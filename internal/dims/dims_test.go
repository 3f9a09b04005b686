package dims

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestShapeValidate(t *testing.T) {
	cases := []struct {
		name  string
		shape Shape
		ok    bool
	}{
		{"empty", Shape{}, false},
		{"nil", nil, false},
		{"one dim", Shape{4}, true},
		{"multi dim", Shape{4, 8, 2}, true},
		{"zero size", Shape{4, 0}, false},
		{"negative", Shape{-1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.shape.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate(%v) = %v, want ok=%v", c.shape, err, c.ok)
			}
		})
	}
}

func TestShapeSize(t *testing.T) {
	if got := (Shape{}).Size(); got != 0 {
		t.Errorf("empty shape size = %d, want 0", got)
	}
	if got := (Shape{7}).Size(); got != 7 {
		t.Errorf("size = %d, want 7", got)
	}
	if got := (Shape{3, 4, 5}).Size(); got != 60 {
		t.Errorf("size = %d, want 60", got)
	}
}

func TestShapeCloneIndependence(t *testing.T) {
	s := Shape{2, 3}
	c := s.Clone()
	c[0] = 99
	if s[0] != 2 {
		t.Errorf("Clone shares backing array")
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	s := Shape{3, 4, 5}
	seen := map[int]bool{}
	FullBox(s).Iter(func(x []int) {
		off := s.Flatten(x)
		if off < 0 || off >= s.Size() {
			t.Fatalf("Flatten(%v) = %d out of range", x, off)
		}
		if seen[off] {
			t.Fatalf("Flatten(%v) = %d already produced", x, off)
		}
		seen[off] = true
		back := s.Unflatten(off, nil)
		if !reflect.DeepEqual(back, x) {
			t.Fatalf("Unflatten(Flatten(%v)) = %v", x, back)
		}
	})
	if len(seen) != s.Size() {
		t.Fatalf("iterated %d cells, want %d", len(seen), s.Size())
	}
}

func TestFlattenRowMajorOrder(t *testing.T) {
	// The last dimension must vary fastest.
	s := Shape{2, 3}
	want := 0
	FullBox(s).Iter(func(x []int) {
		if got := s.Flatten(x); got != want {
			t.Fatalf("Flatten(%v) = %d, want %d", x, got, want)
		}
		want++
	})
}

func TestStridesMatchFlatten(t *testing.T) {
	s := Shape{4, 2, 6}
	st := s.Strides()
	FullBox(s).Iter(func(x []int) {
		manual := 0
		for i := range x {
			manual += x[i] * st[i]
		}
		if manual != s.Flatten(x) {
			t.Fatalf("strides disagree with Flatten at %v", x)
		}
	})
}

func TestFlattenPanics(t *testing.T) {
	s := Shape{2, 2}
	for _, x := range [][]int{{0}, {0, 2}, {-1, 0}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Flatten(%v) did not panic", x)
				}
			}()
			s.Flatten(x)
		}()
	}
}

func TestShapeContains(t *testing.T) {
	s := Shape{2, 3}
	if !s.Contains([]int{1, 2}) {
		t.Error("Contains([1,2]) = false")
	}
	if s.Contains([]int{2, 0}) || s.Contains([]int{0, -1}) || s.Contains([]int{0}) {
		t.Error("Contains accepted out-of-bounds coordinate")
	}
}

func TestBoxValidate(t *testing.T) {
	s := Shape{4, 4}
	cases := []struct {
		name string
		box  Box
		ok   bool
	}{
		{"full", FullBox(s), true},
		{"point", NewBox([]int{1, 2}, []int{1, 2}), true},
		{"inverted", NewBox([]int{2, 0}, []int{1, 3}), false},
		{"out of range hi", NewBox([]int{0, 0}, []int{0, 4}), false},
		{"negative lo", NewBox([]int{-1, 0}, []int{0, 0}), false},
		{"wrong arity", NewBox([]int{0}, []int{0}), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.box.Validate(s)
			if (err == nil) != c.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestBoxSizeAndIterAgree(t *testing.T) {
	b := NewBox([]int{1, 0, 2}, []int{2, 1, 4})
	count := 0
	b.Iter(func(x []int) {
		if !b.Contains(x) {
			t.Fatalf("Iter produced %v outside box", x)
		}
		count++
	})
	if count != b.Size() {
		t.Fatalf("Iter visited %d cells, Size() = %d", count, b.Size())
	}
}

func TestBoxString(t *testing.T) {
	b := NewBox([]int{1, 2}, []int{3, 4})
	if got := b.String(); got != "{[1..3], [2..4]}" {
		t.Errorf("String() = %q", got)
	}
}

func TestCrossProduct(t *testing.T) {
	var got [][]int
	CrossProduct([][]int{{1, 2}, {10, 20, 30}}, func(combo []int) {
		c := make([]int, len(combo))
		copy(c, combo)
		got = append(got, c)
	})
	want := [][]int{{1, 10}, {1, 20}, {1, 30}, {2, 10}, {2, 20}, {2, 30}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CrossProduct = %v, want %v", got, want)
	}
}

func TestCrossProductEmptySetProducesNothing(t *testing.T) {
	called := false
	CrossProduct([][]int{{1}, {}}, func([]int) { called = true })
	if called {
		t.Error("CrossProduct with an empty set called fn")
	}
	CrossProduct(nil, func([]int) { called = true })
	if called {
		t.Error("CrossProduct with no sets called fn")
	}
}

// Property: Flatten is a bijection between coordinates and [0, Size).
func TestFlattenBijectionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(a, b, c uint8) bool {
		s := Shape{int(a%5) + 1, int(b%5) + 1, int(c%5) + 1}
		x := []int{rng.Intn(s[0]), rng.Intn(s[1]), rng.Intn(s[2])}
		off := s.Flatten(x)
		back := s.Unflatten(off, nil)
		return reflect.DeepEqual(back, x) && off >= 0 && off < s.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: box size equals the number of coordinates Iter yields, for
// random valid boxes.
func TestBoxIterCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := r.Intn(3) + 1
		s := make(Shape, d)
		lo := make([]int, d)
		hi := make([]int, d)
		for i := range s {
			s[i] = r.Intn(6) + 1
			lo[i] = r.Intn(s[i])
			hi[i] = lo[i] + r.Intn(s[i]-lo[i])
		}
		b := NewBox(lo, hi)
		if err := b.Validate(s); err != nil {
			return false
		}
		n := 0
		b.Iter(func([]int) { n++ })
		return n == b.Size()
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Unflatten converts a row-major flat offset back into a coordinate
// vector, writing into dst (which must have length len(s)) and
// returning it. If dst is nil a fresh vector is allocated.
func (s Shape) Unflatten(off int, dst []int) []int {
	if dst == nil {
		dst = make([]int, len(s))
	}
	if len(dst) != len(s) {
		panic("dims: dst arity does not match shape arity")
	}
	for i := len(s) - 1; i >= 0; i-- {
		dst[i] = off % s[i]
		off /= s[i]
	}
	return dst
}

// Size returns the number of cells the box selects.
func (b Box) Size() int {
	n := 1
	for i := range b.Lo {
		n *= b.Hi[i] - b.Lo[i] + 1
	}
	return n
}
