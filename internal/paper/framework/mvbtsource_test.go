package framework

import (
	"math/rand"
	"testing"
	"testing/quick"

	"histcube/internal/dims"
)

func TestMVBTSourceMatchesCloneSource(t *testing.T) {
	mv, err := NewMVBTSource()
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{Source: mv})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(Config{Source: NewCloneSource(func() Cloneable { return NewBTreeStructure() })})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(51))
	now := int64(0)
	for i := 0; i < 400; i++ {
		if r.Intn(3) == 0 {
			now += int64(r.Intn(3) + 1)
		}
		x := []int{r.Intn(50)}
		v := float64(r.Intn(9) + 1)
		if err := a.Update(now, x, v); err != nil {
			t.Fatal(err)
		}
		if err := ref.Update(now, x, v); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			lo := r.Intn(50)
			hi := lo + r.Intn(50-lo)
			b := dims.NewBox([]int{lo}, []int{hi})
			tLo := int64(r.Intn(int(now) + 2))
			tHi := tLo + int64(r.Intn(int(now)+2))
			g1, err1 := a.Query(tLo, tHi, b)
			g2, err2 := ref.Query(tLo, tHi, b)
			if err1 != nil || err2 != nil || g1 != g2 {
				t.Fatalf("op %d: mvbt %v (%v) vs clone %v (%v)", i, g1, err1, g2, err2)
			}
		}
	}
}

func TestMVBTSourceValidation(t *testing.T) {
	mv, err := NewMVBTSource()
	if err != nil {
		t.Fatal(err)
	}
	if err := mv.Update(true, []int{1, 2}, 1); err == nil {
		t.Error("2-d point accepted")
	}
	if _, err := mv.QueryAt(0, dims.NewBox([]int{0}, []int{1})); err == nil {
		t.Error("query before any instance accepted")
	}
	if err := mv.UpdateFrom(0, []int{1}, 1); err != ErrCascadeUnsupported {
		t.Errorf("UpdateFrom err = %v", err)
	}
}

// Property: MVBT-backed and treap-backed append-only sets agree on
// random append streams.
func TestMVBTAgreesWithTreapProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mv, err := NewMVBTSource()
		if err != nil {
			return false
		}
		a, err := New(Config{Source: mv})
		if err != nil {
			return false
		}
		b, err := New(Config{Source: NewTreapSource()})
		if err != nil {
			return false
		}
		now := int64(0)
		for i := 0; i < 120; i++ {
			if r.Intn(4) == 0 {
				now++
			}
			x := []int{r.Intn(30)}
			v := float64(r.Intn(7) + 1)
			if a.Update(now, x, v) != nil || b.Update(now, x, v) != nil {
				return false
			}
			if i%6 == 0 {
				lo := r.Intn(30)
				hi := lo + r.Intn(30-lo)
				box := dims.NewBox([]int{lo}, []int{hi})
				tLo := int64(r.Intn(int(now) + 2))
				tHi := tLo + int64(r.Intn(int(now)+2))
				g1, e1 := a.Query(tLo, tHi, box)
				g2, e2 := b.Query(tLo, tHi, box)
				if e1 != nil || e2 != nil || g1 != g2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
