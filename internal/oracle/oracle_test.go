package oracle

import "testing"

// TestQueryByHand: answers worked out by hand, each a box edge, the
// time range's ends, a delete, or an empty range.
func TestQueryByHand(t *testing.T) {
	var ps Points
	coords := []int{1, 2}
	ps.Insert(10, coords, 4)
	coords[0] = 3 // the list keeps its own copy
	ps.Insert(20, []int{1, 2}, 8)
	ps.Insert(20, []int{0, 5}, 6)
	ps.Delete(30, []int{1, 2}, 4)
	for _, c := range []struct {
		tlo, thi int64
		lo, hi   []int
		want     Pair
	}{
		{0, 100, []int{0, 0}, []int{9, 9}, Pair{14, 2}},
		{10, 20, []int{1, 2}, []int{1, 2}, Pair{12, 2}},
		{11, 20, []int{0, 0}, []int{1, 4}, Pair{8, 1}},
		{20, 20, []int{0, 5}, []int{0, 5}, Pair{6, 1}},
		{21, 29, []int{0, 0}, []int{9, 9}, Pair{}},
		{30, 30, []int{0, 0}, []int{9, 9}, Pair{-4, -1}},
		{20, 10, []int{0, 0}, []int{9, 9}, Pair{}},
	} {
		if got := ps.Query(c.tlo, c.thi, c.lo, c.hi); got != c.want {
			t.Errorf("Query(%d, %d, %v, %v) = %+v, want %+v", c.tlo, c.thi, c.lo, c.hi, got, c.want)
		}
	}
}

func TestOf(t *testing.T) {
	p := Pair{Sum: 14, Count: 4}
	for op, want := range map[string]float64{"sum": 14, "COUNT": 4, "AVG": 3.5, "avg": 3.5} {
		if got := p.Of(op); got != want {
			t.Errorf("Of(%q) = %v, want %v", op, got, want)
		}
	}
	if got := (Pair{}).Of("avg"); got != 0 {
		t.Errorf("average of nothing = %v, want 0", got)
	}
}
