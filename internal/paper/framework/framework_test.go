package framework

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"histcube/internal/dims"
	"histcube/internal/molap"
	"histcube/internal/oracle"
)

func newBTreeAppendOnly(t *testing.T, ooo bool) *AppendOnly {
	t.Helper()
	cfg := Config{Source: NewCloneSource(func() Cloneable { return NewBTreeStructure() })}
	if ooo {
		cfg.OutOfOrder = NewListGd()
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewRequiresSource(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without source succeeded")
	}
}

func TestSection22Example(t *testing.T) {
	// The time x location walkthrough of Section 2.2 with a B-tree as
	// R_1: a 2-d range query is two 1-d prefix-time queries.
	a := newBTreeAppendOnly(t, false)
	var ref oracle.Points
	for _, u := range []struct {
		t   int64
		loc int
		v   float64
	}{{1, 3, 3}, {1, 5, 4}, {3, 4, 2}, {3, 3, 1}, {4, 5, 3}} {
		if err := a.Update(u.t, []int{u.loc}, u.v); err != nil {
			t.Fatal(err)
		}
		ref.Insert(u.t, []int{u.loc}, u.v)
	}
	box := dims.NewBox([]int{3}, []int{5})
	got, err := a.Query(2, 4, box)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Query(2, 4, box.Lo, box.Hi).Sum; got != want {
		t.Fatalf("query = %v, want %v", got, want)
	}
	if a.dir.Len() != 3 {
		t.Errorf("instances = %d, want 3 (occurring times 1,3,4)", a.dir.Len())
	}
}

func TestOutOfOrderRejectedWithoutBuffer(t *testing.T) {
	a := newBTreeAppendOnly(t, false)
	if err := a.Update(10, []int{1}, 1); err != nil {
		t.Fatal(err)
	}
	err := a.Update(5, []int{1}, 1)
	if !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("err = %v, want ErrOutOfOrder", err)
	}
}

func TestOutOfOrderBufferedAndQueried(t *testing.T) {
	a := newBTreeAppendOnly(t, true)
	var ref oracle.Points
	upd := func(tv int64, loc int, v float64) {
		t.Helper()
		if err := a.Update(tv, []int{loc}, v); err != nil {
			t.Fatal(err)
		}
		ref.Insert(tv, []int{loc}, v)
	}
	upd(10, 3, 5)
	upd(20, 4, 2)
	upd(10, 2, 4) // out of order, at an occurring time: drainable
	upd(15, 3, 7) // out of order, non-occurring time: stays in G_d
	upd(5, 1, 1)  // out of order, before the first occurring time
	if len(a.gd.(*ListGd).pts) != 3 {
		t.Fatalf("pending = %d", len(a.gd.(*ListGd).pts))
	}
	box := dims.NewBox([]int{0}, []int{9})
	for _, tr := range [][2]int64{{0, 30}, {11, 19}, {5, 5}, {0, 9}, {16, 30}, {10, 10}} {
		got, err := a.Query(tr[0], tr[1], box)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.Query(tr[0], tr[1], box.Lo, box.Hi).Sum; got != want {
			t.Fatalf("query [%d,%d] = %v, want %v", tr[0], tr[1], got, want)
		}
	}
	// Drain the buffer: only the occurring-time update folds in; the
	// others stay buffered (and stay visible through the G_d merge).
	n, err := a.ApplyOutOfOrder(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(a.gd.(*ListGd).pts) != 2 {
		t.Fatalf("applied %d, pending %d; want 1 applied, 2 pending", n, len(a.gd.(*ListGd).pts))
	}
	for _, tr := range [][2]int64{{0, 30}, {11, 19}, {5, 5}, {0, 9}, {16, 30}, {10, 10}} {
		got, err := a.Query(tr[0], tr[1], box)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.Query(tr[0], tr[1], box.Lo, box.Hi).Sum; got != want {
			t.Fatalf("post-drain query [%d,%d] = %v, want %v", tr[0], tr[1], got, want)
		}
	}
}

func TestTreapSourceCascadeUnsupported(t *testing.T) {
	a, err := New(Config{Source: NewTreapSource(), OutOfOrder: NewListGd()})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Update(10, []int{1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Update(20, []int{2}, 1); err != nil {
		t.Fatal(err)
	}
	// Out of order at an occurring time: drainable in principle, but
	// the persistent source cannot rewrite history.
	if err := a.Update(10, []int{3}, 1); err != nil {
		t.Fatal(err)
	}
	_, err = a.ApplyOutOfOrder(10)
	if !errors.Is(err, ErrCascadeUnsupported) {
		t.Errorf("err = %v, want ErrCascadeUnsupported", err)
	}
	// The update must remain buffered and still be visible to queries.
	if len(a.gd.(*ListGd).pts) != 1 {
		t.Errorf("pending = %d", len(a.gd.(*ListGd).pts))
	}
	got, err := a.Query(10, 10, dims.NewBox([]int{0}, []int{9}))
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("query = %v, want 2 (in-order point plus buffered correction)", got)
	}
}

func TestListGdPopLatest(t *testing.T) {
	g := NewListGd()
	g.Insert(5, []int{1}, 1)
	g.Insert(9, []int{2}, 2)
	g.Insert(7, []int{3}, 3)
	tv, _, _, ok := g.PopLatest()
	if !ok || tv != 9 {
		t.Fatalf("first pop = %d,%v", tv, ok)
	}
	tv, _, _, ok = g.PopLatest()
	if !ok || tv != 7 {
		t.Fatalf("second pop = %d,%v", tv, ok)
	}
	tv, _, _, ok = g.PopLatest()
	if !ok || tv != 5 {
		t.Fatalf("third pop = %d,%v", tv, ok)
	}
	if _, _, _, ok = g.PopLatest(); ok {
		t.Error("pop on empty returned ok")
	}
}

func TestArrayStructureSource(t *testing.T) {
	// Framework over 2-d molap arrays: a 3-d append-only problem
	// reduced to 2-d instances.
	shape := dims.Shape{4, 5}
	mk := func() Cloneable {
		arr, err := molap.New(shape, []molap.Technique{molap.Raw{}, molap.Raw{}})
		if err != nil {
			t.Fatal(err)
		}
		return NewArrayStructure(arr)
	}
	a, err := New(Config{Source: NewCloneSource(mk)})
	if err != nil {
		t.Fatal(err)
	}
	var ref oracle.Points
	r := rand.New(rand.NewSource(21))
	now := int64(0)
	for i := 0; i < 150; i++ {
		if r.Intn(3) == 0 {
			now += int64(r.Intn(3) + 1)
		}
		x := []int{r.Intn(4), r.Intn(5)}
		v := float64(r.Intn(7) - 3)
		if err := a.Update(now, x, v); err != nil {
			t.Fatal(err)
		}
		ref.Insert(now, x, v)
	}
	for q := 0; q < 100; q++ {
		lo := []int{r.Intn(4), r.Intn(5)}
		hi := []int{lo[0] + r.Intn(4-lo[0]), lo[1] + r.Intn(5-lo[1])}
		b := dims.Box{Lo: lo, Hi: hi}
		tLo := int64(r.Intn(int(now) + 2))
		tHi := tLo + int64(r.Intn(int(now)+2))
		got, err := a.Query(tLo, tHi, b)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.Query(tLo, tHi, b.Lo, b.Hi).Sum; got != want {
			t.Fatalf("query [%d,%d] %v = %v, want %v", tLo, tHi, b, got, want)
		}
	}
}

// Property: clone-source and treap-source agree with the oracle (and
// with each other) on random 1-d append streams with out-of-order
// updates and interleaved drains.
func TestSourcesAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		clone, err := New(Config{
			Source:     NewCloneSource(func() Cloneable { return NewBTreeStructure() }),
			OutOfOrder: NewListGd(),
		})
		if err != nil {
			return false
		}
		treap, err := New(Config{Source: NewTreapSource(), OutOfOrder: NewListGd()})
		if err != nil {
			return false
		}
		var ref oracle.Points
		now := int64(0)
		for i := 0; i < 120; i++ {
			var tv int64
			if r.Intn(10) == 0 && now > 2 {
				tv = int64(r.Intn(int(now))) // out of order
			} else {
				if r.Intn(3) == 0 {
					now += int64(r.Intn(3) + 1)
				}
				tv = now
			}
			x := []int{r.Intn(20)}
			v := float64(r.Intn(9) - 4)
			if err := clone.Update(tv, x, v); err != nil {
				return false
			}
			if err := treap.Update(tv, x, v); err != nil {
				return false
			}
			ref.Insert(tv, x, v)
			if r.Intn(10) == 0 {
				if _, err := clone.ApplyOutOfOrder(r.Intn(3)); err != nil {
					return false
				}
			}
			if i%4 == 0 {
				lo := r.Intn(20)
				hi := lo + r.Intn(20-lo)
				b := dims.NewBox([]int{lo}, []int{hi})
				tLo := int64(r.Intn(int(now) + 2))
				tHi := tLo + int64(r.Intn(int(now)+2))
				want := ref.Query(tLo, tHi, b.Lo, b.Hi).Sum
				g1, err1 := clone.Query(tLo, tHi, b)
				g2, err2 := treap.Query(tLo, tHi, b)
				if err1 != nil || err2 != nil || g1 != want || g2 != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPrefixQueryBeforeFirstTime(t *testing.T) {
	a := newBTreeAppendOnly(t, false)
	if err := a.Update(10, []int{1}, 5); err != nil {
		t.Fatal(err)
	}
	got, err := a.PrefixQuery(9, dims.NewBox([]int{0}, []int{5}))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("prefix before first time = %v", got)
	}
	got, err = a.PrefixQuery(10, dims.NewBox([]int{0}, []int{5}))
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("prefix at first time = %v", got)
	}
}
