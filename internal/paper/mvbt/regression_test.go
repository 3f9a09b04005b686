package mvbt

import (
	"math/rand"
	"testing"
)

// TestRouterCoverageRegression pins the router-coverage bug: when a
// version split replaced a child whose smallest keys had died, the new
// entry's router was set to the copy's minimum live key, which could
// exceed the old router and strand still-live keys below it. Twenty
// seeded histories with full liveness sweeps every 50 operations catch
// any recurrence.
func TestRouterCoverageRegression(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tr, err := New(Config{Capacity: 16})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		live := map[int64]bool{}
		for ops := 0; ops < 4000; ops++ {
			k := int64(r.Intn(500))
			if live[k] {
				if err := tr.Delete(k); err != nil {
					t.Fatalf("seed %d op %d: delete %d: %v", seed, ops, k, err)
				}
				delete(live, k)
			} else {
				if err := tr.Insert(k, 1); err != nil {
					t.Fatalf("seed %d op %d: insert %d: %v", seed, ops, k, err)
				}
				live[k] = true
			}
			if ops%50 == 0 {
				for kk := range live {
					if _, ok := tr.Get(tr.Version(), kk); !ok {
						t.Fatalf("seed %d op %d: live key %d invisible", seed, ops, kk)
					}
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, ops, err)
				}
			}
		}
	}
}
