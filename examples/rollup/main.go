// Roll-up example: dimension hierarchies over a live cube — the
// "collections of related range queries" view of roll-up and
// drill-down from the paper's introduction, using the hierarchy
// package with named-dimension queries.
//
// Scenario: 24 cities grouped into 6 states grouped into 2 regions;
// daily sales rolled up monthly.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"histcube/internal/agg"
	"histcube/internal/core"
	"histcube/internal/paper/hierarchy"
)

func main() {
	cube, err := core.New(core.Config{
		Dims:     []core.Dim{{Name: "city", Size: 24}, {Name: "category", Size: 5}},
		Operator: agg.Sum,
	})
	if err != nil {
		log.Fatal(err)
	}

	geo, err := hierarchy.New("city", 24)
	if err != nil {
		log.Fatal(err)
	}
	if err := geo.AddUniformLevel("state", 4); err != nil { // 6 states
		log.Fatal(err)
	}
	if err := geo.AddUniformLevel("region", 3); err != nil { // 2 regions
		log.Fatal(err)
	}

	// Ninety days of sales; western cities (region 1) sell more.
	r := rand.New(rand.NewSource(12))
	for day := int64(0); day < 90; day++ {
		for n := 0; n < 120; n++ {
			city := r.Intn(24)
			amount := 10 + r.Float64()*40
			if city >= 12 {
				amount *= 1.6
			}
			if err := cube.Insert(day, []int{city, r.Intn(5)}, amount); err != nil {
				log.Fatal(err)
			}
		}
	}

	q := func(lo, hi []int) (float64, error) {
		return cube.Query(core.Range{TimeLo: 0, TimeHi: 89, Lo: lo, Hi: hi})
	}

	fmt.Println("roll-up: revenue by region (90 days):")
	vals, aggs, err := hierarchy.GroupBy(q, []int{0, 0}, []int{23, 4}, 0, geo, "region")
	if err != nil {
		log.Fatal(err)
	}
	for i, v := range vals {
		fmt.Printf("  region %d: %12.0f\n", v, aggs[i])
	}

	fmt.Println("\ndrill-down into region 1 by state:")
	lo, hi, err := geo.Range("region", 1)
	if err != nil {
		log.Fatal(err)
	}
	vals, aggs, err = hierarchy.GroupBy(q, []int{lo, 0}, []int{hi, 4}, 0, geo, "state")
	if err != nil {
		log.Fatal(err)
	}
	for i, v := range vals {
		fmt.Printf("  state %d: %12.0f\n", v, aggs[i])
	}

	fmt.Println("\nmonthly revenue (time buckets of 30 days):")
	starts, sums, err := hierarchy.TimeBuckets(func(tLo, tHi int64) (float64, error) {
		return cube.Query(core.Range{TimeLo: tLo, TimeHi: tHi, Lo: []int{0, 0}, Hi: []int{23, 4}})
	}, 0, 89, 30)
	if err != nil {
		log.Fatal(err)
	}
	for i, s := range starts {
		fmt.Printf("  days %2d-%2d: %12.0f\n", s, s+29, sums[i])
	}

	// Named-dimension sugar: category 2 in the top state of region 1.
	v, err := cube.QueryNamed(0, 89, map[string]core.Constraint{
		"city":     core.Span(12, 15),
		"category": core.Point(2),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstate 3, category 2, full quarter: %.0f\n", v)
}
