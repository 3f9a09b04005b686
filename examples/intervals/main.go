// Interval example: objects with an extent in the transaction-time
// dimension (Section 2.4 of the paper) — user sessions with a start
// and end time plus a server coordinate. The C/B instance pair
// answers "how many sessions were active during/at ..." with three
// fixed-cost structure queries; the endpoint family answers
// containment.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"histcube/internal/dims"
	"histcube/internal/molap"
	"histcube/internal/paper/extent"
	"histcube/internal/paper/framework"
)

const servers = 16

func main() {
	tracker, err := extent.NewTracker(extent.Config{
		Fresh: func() framework.Cloneable { return framework.NewBTreeStructure() },
		FreshEndpoint: func() framework.Cloneable {
			a, err := molap.New(dims.Shape{1024, servers}, []molap.Technique{molap.Raw{}, molap.Raw{}})
			if err != nil {
				log.Fatal(err)
			}
			return framework.NewArrayStructure(a)
		},
		StartToCoord: func(s int64) int {
			if s < 0 {
				return 0
			}
			if s > 1023 {
				return 1023
			}
			return int(s)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Sessions arrive ordered by start time; durations are skewed
	// (most short, some long-lived).
	r := rand.New(rand.NewSource(9))
	start := int64(0)
	for i := 0; i < 2000; i++ {
		start += int64(r.Intn(2))
		dur := int64(1 + r.Intn(10))
		if r.Intn(20) == 0 {
			dur = int64(50 + r.Intn(100)) // long-lived session
		}
		if err := tracker.Add(extent.Interval{
			Start:  start,
			End:    start + dur,
			Coords: []int{r.Intn(servers)},
			Value:  1,
		}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("tracked %d sessions (%d still open at the end of the stream)\n",
		tracker.Len(), tracker.Pending())

	allServers := dims.NewBox([]int{0}, []int{servers - 1})

	// Stab queries: concurrent sessions at single instants.
	for _, at := range []int64{100, 500, 900} {
		v, err := tracker.StabQuery(at, allServers)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sessions active at t=%3d: %3.0f\n", at, v)
	}

	// Intersection: sessions overlapping a maintenance window, only on
	// servers 0-3.
	v, err := tracker.IntersectQuery(600, 650, dims.NewBox([]int{0}, []int{3}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sessions on servers 0-3 overlapping window [600,650]: %.0f\n", v)

	// Containment: sessions that started and ended within the window.
	v, err = tracker.ContainedQuery(600, 700, allServers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sessions fully inside [600,700]: %.0f\n", v)
}
