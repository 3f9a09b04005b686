package mvbt

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Capacity: 4}); err == nil {
		t.Error("tiny capacity accepted")
	}
	tr, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Version() != 0 || tr.Len() != 0 {
		t.Error("fresh tree not empty")
	}
}

func TestInsertGetAcrossVersions(t *testing.T) {
	tr, _ := New(Config{Capacity: 8})
	if err := tr.Insert(10, 1.5); err != nil {
		t.Fatal(err)
	}
	v1 := tr.Version()
	if err := tr.Insert(20, 2.5); err != nil {
		t.Fatal(err)
	}
	v2 := tr.Version()
	if err := tr.Delete(10); err != nil {
		t.Fatal(err)
	}
	v3 := tr.Version()

	if _, ok := tr.Get(0, 10); ok {
		t.Error("key visible at version 0")
	}
	if got, ok := tr.Get(v1, 10); !ok || got != 1.5 {
		t.Errorf("Get(v1,10) = %v,%v", got, ok)
	}
	if got, ok := tr.Get(v2, 20); !ok || got != 2.5 {
		t.Errorf("Get(v2,20) = %v,%v", got, ok)
	}
	if _, ok := tr.Get(v3, 10); ok {
		t.Error("deleted key visible at v3")
	}
	if got, ok := tr.Get(v2, 10); !ok || got != 1.5 {
		t.Errorf("Get(v2,10) after delete = %v,%v (old version must survive)", got, ok)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestDoubleInsertAndMissingDelete(t *testing.T) {
	tr, _ := New(Config{Capacity: 8})
	if err := tr.Insert(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(5, 2); err == nil {
		t.Error("double insert accepted")
	}
	if err := tr.Delete(6); err == nil {
		t.Error("delete of missing key accepted")
	}
	// Failed ops must not advance the version.
	if tr.Version() != 1 {
		t.Errorf("version = %d after failed ops, want 1", tr.Version())
	}
}

func TestAddAccumulates(t *testing.T) {
	tr, _ := New(Config{Capacity: 8})
	if err := tr.Add(7, 3); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(7, 4); err != nil {
		t.Fatal(err)
	}
	if got, ok := tr.Get(tr.Version(), 7); !ok || got != 7 {
		t.Errorf("Get = %v,%v", got, ok)
	}
}

func TestManyInsertsSplit(t *testing.T) {
	tr, _ := New(Config{Capacity: 8})
	r := rand.New(rand.NewSource(1))
	keys := r.Perm(2000)
	for _, k := range keys {
		if err := tr.Insert(int64(k), float64(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	cur := tr.Version()
	for _, k := range keys {
		if got, ok := tr.Get(cur, int64(k)); !ok || got != float64(k) {
			t.Fatalf("Get(%d) = %v,%v", k, got, ok)
		}
	}
	// Ascend yields sorted keys.
	var got []int64
	tr.Ascend(cur, func(k int64, _ float64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 2000 || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("Ascend produced %d keys, sorted=%v", len(got),
			sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }))
	}
}

func TestRangeSumCurrentVersion(t *testing.T) {
	tr, _ := New(Config{Capacity: 8})
	for k := int64(0); k < 100; k++ {
		if err := tr.Insert(k, float64(k)); err != nil {
			t.Fatal(err)
		}
	}
	cur := tr.Version()
	for lo := int64(0); lo < 100; lo += 7 {
		for hi := lo; hi < 100; hi += 13 {
			want := 0.0
			for k := lo; k <= hi; k++ {
				want += float64(k)
			}
			if got := tr.RangeSum(cur, lo, hi); got != want {
				t.Fatalf("RangeSum(%d,%d) = %v, want %v", lo, hi, got, want)
			}
		}
	}
	if got := tr.RangeSum(cur, 50, 10); got != 0 {
		t.Errorf("inverted range = %v", got)
	}
	if got := tr.RangeSum(cur+5, 0, 10); got != 0 {
		t.Errorf("future version = %v", got)
	}
}

// TestEveryVersionQueryable is the core multiversion property: after a
// long random insert/delete history, every intermediate version
// answers Get and RangeSum exactly as the shadow snapshot of that
// version.
func TestEveryVersionQueryable(t *testing.T) {
	tr, _ := New(Config{Capacity: 8})
	r := rand.New(rand.NewSource(2))
	live := map[int64]float64{}
	type snap map[int64]float64
	snaps := []snap{{}} // version 0
	for op := 0; op < 600; op++ {
		if len(live) > 0 && r.Intn(3) == 0 {
			// Delete a random live key.
			var ks []int64
			for k := range live {
				ks = append(ks, k)
			}
			sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
			k := ks[r.Intn(len(ks))]
			if err := tr.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(live, k)
		} else {
			k := int64(r.Intn(300))
			if _, dup := live[k]; dup {
				if err := tr.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(live, k)
			} else {
				v := float64(r.Intn(50) + 1)
				if err := tr.Insert(k, v); err != nil {
					t.Fatal(err)
				}
				live[k] = v
			}
		}
		s := make(snap, len(live))
		for k, v := range live {
			s[k] = v
		}
		snaps = append(snaps, s)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if int64(len(snaps)-1) != tr.Version() {
		t.Fatalf("recorded %d versions, tree at %d", len(snaps)-1, tr.Version())
	}
	// Spot-check a spread of versions exhaustively.
	for ver := 0; ver < len(snaps); ver += 13 {
		s := snaps[ver]
		for k := int64(0); k < 300; k += 3 {
			want, wantOK := s[k]
			got, ok := tr.Get(int64(ver), k)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("v%d Get(%d) = %v,%v want %v,%v", ver, k, got, ok, want, wantOK)
			}
		}
		for q := 0; q < 10; q++ {
			lo := int64(r.Intn(320) - 10)
			hi := lo + int64(r.Intn(120))
			want := 0.0
			for k, v := range s {
				if k >= lo && k <= hi {
					want += v
				}
			}
			if got := tr.RangeSum(int64(ver), lo, hi); got != want {
				t.Fatalf("v%d RangeSum(%d,%d) = %v, want %v", ver, lo, hi, got, want)
			}
		}
	}
}

// Property: random histories across random capacities keep all
// versions exact.
func TestVersionedShadowProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr, err := New(Config{Capacity: 8 + r.Intn(24)})
		if err != nil {
			return false
		}
		live := map[int64]float64{}
		var checkVers []int64
		var checkSnaps []map[int64]float64
		for op := 0; op < 200; op++ {
			k := int64(r.Intn(60))
			if _, ok := live[k]; ok {
				if tr.Delete(k) != nil {
					return false
				}
				delete(live, k)
			} else {
				v := float64(r.Intn(9) + 1)
				if tr.Insert(k, v) != nil {
					return false
				}
				live[k] = v
			}
			if r.Intn(10) == 0 {
				s := make(map[int64]float64, len(live))
				for kk, vv := range live {
					s[kk] = vv
				}
				checkVers = append(checkVers, tr.Version())
				checkSnaps = append(checkSnaps, s)
			}
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		for i, ver := range checkVers {
			s := checkSnaps[i]
			lo := int64(r.Intn(60))
			hi := lo + int64(r.Intn(30))
			want := 0.0
			for k, v := range s {
				if k >= lo && k <= hi {
					want += v
				}
			}
			if tr.RangeSum(ver, lo, hi) != want {
				return false
			}
			n := 0
			tr.Ascend(ver, func(int64, float64) bool { n++; return true })
			if n != len(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAppendOnlyFrameworkUse exercises the structure the way
// Section 4 proposes: a 2-d append-only data set (time x key) where
// each framework instance is one tree version, so historical range
// sums are answered against old versions.
func TestAppendOnlyFrameworkUse(t *testing.T) {
	tr, _ := New(Config{Capacity: 16})
	// Occurring times map to the version after the last update of that
	// time.
	versionOf := map[int64]int64{}
	r := rand.New(rand.NewSource(3))
	type pt struct {
		t   int64
		key int64
		v   float64
	}
	var pts []pt
	for tm := int64(0); tm < 30; tm++ {
		for u := 0; u < 10; u++ {
			k := int64(r.Intn(200))
			v := float64(r.Intn(9) + 1)
			if err := tr.Add(k, v); err != nil {
				t.Fatal(err)
			}
			pts = append(pts, pt{t: tm, key: k, v: v})
		}
		versionOf[tm] = tr.Version()
	}
	// A (time <= T, key in [lo,hi]) prefix query is one RangeSum at
	// versionOf[T].
	for T := int64(0); T < 30; T += 5 {
		lo, hi := int64(40), int64(160)
		want := 0.0
		for _, p := range pts {
			if p.t <= T && p.key >= lo && p.key <= hi {
				want += p.v
			}
		}
		if got := tr.RangeSum(versionOf[T], lo, hi); got != want {
			t.Fatalf("prefix time %d: got %v want %v", T, got, want)
		}
	}
}

func TestSpaceLinearInUpdates(t *testing.T) {
	tr, _ := New(Config{Capacity: 16})
	r := rand.New(rand.NewSource(4))
	live := map[int64]bool{}
	ops := 0
	for ops < 4000 {
		k := int64(r.Intn(500))
		if live[k] {
			if err := tr.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(live, k)
		} else {
			if err := tr.Insert(k, 1); err != nil {
				t.Fatal(err)
			}
			live[k] = true
		}
		ops++
	}
	st := tr.Space()
	if st.Live != len(live) || st.Live != tr.Len() {
		t.Fatalf("live = %d, want %d (Len %d)", st.Live, len(live), tr.Len())
	}
	// Linear space: physical entries within a small constant of the
	// update count (each update writes O(1) entries amortised).
	if st.Entries > 6*ops {
		t.Errorf("space %d entries for %d updates; not linear", st.Entries, ops)
	}
	if st.Nodes == 0 || st.Entries < st.Live {
		t.Errorf("implausible space stats %+v", st)
	}
}
