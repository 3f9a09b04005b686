package core

import (
	"context"
	"testing"

	"histcube/internal/agg"
	"histcube/internal/trace"
)

func traceTestCube(t *testing.T) *Cube {
	t.Helper()
	c, err := New(Config{
		Dims:     []Dim{{Name: "x", Size: 8}, {Name: "y", Size: 8}},
		Operator: agg.Sum,
	})
	if err != nil {
		t.Fatal(err)
	}
	for tm := int64(1); tm <= 3; tm++ {
		for i := 0; i < 8; i++ {
			if err := c.Insert(tm, []int{i, (i * 3) % 8}, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

func TestQueryCtxSpanTree(t *testing.T) {
	c := traceTestCube(t)
	root := trace.New("histserve.query")
	ctx := trace.NewContext(context.Background(), root)
	// Historic range: both framework prefixes resolve to slices
	// (floor(3)=slice 2 is the cache, floor(1)=slice 0 is historic).
	v, err := c.QueryCtx(ctx, Range{TimeLo: 2, TimeHi: 3, Lo: []int{0, 0}, Hi: []int{7, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if v != 16 { // 8 points in each of slices 2 and 3's deltas
		t.Fatalf("query = %v, want 16", v)
	}
	root.End()

	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "histcube.query" {
		t.Fatalf("root children = %v, want one histcube.query", kids)
	}
	q := kids[0]
	var prefixes []*trace.Span
	for _, ch := range q.Children() {
		if ch.Name() == "histcube.prefix" {
			prefixes = append(prefixes, ch)
		}
	}
	if len(prefixes) != 2 {
		t.Fatalf("got %d histcube.prefix spans, want 2 (the framework reduction)", len(prefixes))
	}
	if got := q.Total(trace.Instances); got != 2 {
		t.Fatalf("instances consulted = %d, want 2", got)
	}
	if q.Total(trace.CellsTouched) == 0 {
		t.Fatal("historic prefix must touch cells")
	}
	if q.Total(trace.CacheAccesses) == 0 {
		t.Fatal("cache prefix must access cache cells")
	}
	for _, p := range prefixes {
		if p.Duration() <= 0 {
			t.Fatal("prefix spans must be ended")
		}
	}
}

func TestApplyOpSpanCounters(t *testing.T) {
	c := traceTestCube(t)
	root := trace.New("histserve.insert")
	ctx := trace.NewContext(context.Background(), root)
	if err := c.ApplyOp(ctx, Op{Kind: OpInsert, Time: 4, Coords: []int{1, 1}, Value: 2}); err != nil {
		t.Fatal(err)
	}
	root.End()
	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "histcube.insert" {
		t.Fatalf("root children = %v, want one histcube.insert", kids)
	}
	in := kids[0]
	if in.Total(trace.CacheAccesses) == 0 {
		t.Fatal("insert must touch cache cells")
	}
	// Opening time 4 creates a slice, so the update forces lazy copies
	// of overwritten cells (Fig. 8 step 3).
	if in.Total(trace.ForcedCopies) == 0 {
		t.Fatal("new-slice insert must record forced copies")
	}
}

func TestConversionTriggerSplit(t *testing.T) {
	c := traceTestCube(t)
	st0 := c.Stats()
	if st0.ECubeConversions != 0 || st0.ECubeConversionsQuery != 0 || st0.ECubeConversionsAppend != 0 {
		t.Fatalf("appends alone must not convert: %+v", st0)
	}
	// A historic query triggers lazy DDC->PS conversion.
	r := Range{TimeLo: 1, TimeHi: 1, Lo: []int{1, 1}, Hi: []int{6, 6}}
	if _, err := c.Query(r); err != nil {
		t.Fatal(err)
	}
	st1 := c.Stats()
	if st1.ECubeConversionsQuery == 0 {
		t.Fatal("historic query must register query-triggered conversions")
	}
	if st1.ECubeConversionsAppend != 0 {
		t.Fatalf("append leg = %d, want 0 (appends never run the eCube algorithm)", st1.ECubeConversionsAppend)
	}
	if st1.ECubeConversionsQuery+st1.ECubeConversionsAppend != st1.ECubeConversions {
		t.Fatalf("split legs %d+%d do not sum to total %d",
			st1.ECubeConversionsQuery, st1.ECubeConversionsAppend, st1.ECubeConversions)
	}
	// More appends after the query: the query leg must not move.
	for i := 0; i < 8; i++ {
		if err := c.Insert(9, []int{i, i}, 1); err != nil {
			t.Fatal(err)
		}
	}
	st2 := c.Stats()
	if st2.ECubeConversionsQuery != st1.ECubeConversionsQuery {
		t.Fatal("appends moved the query-triggered conversion counter")
	}
	if st2.ECubeConversionsAppend != 0 {
		t.Fatalf("append leg moved to %d", st2.ECubeConversionsAppend)
	}
}

func TestDiskQuerySpanPagerCounters(t *testing.T) {
	// Disk-backed historic slices: a traced historic query must
	// attribute its page faults (and store accesses) to the span.
	c, err := New(Config{
		Dims:     []Dim{{Name: "x", Size: 8}, {Name: "y", Size: 8}},
		Operator: agg.Sum,
		Storage:  Storage{Kind: Disk, PageSize: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	for tm := int64(1); tm <= 3; tm++ {
		for i := 0; i < 8; i++ {
			if err := c.Insert(tm, []int{i, i}, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	root := trace.New("histserve.query")
	v, err := c.QueryCtx(trace.NewContext(context.Background(), root), Range{TimeLo: 1, TimeHi: 1, Lo: []int{0, 0}, Hi: []int{7, 7}})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if v != 8 {
		t.Fatalf("query = %v, want 8", v)
	}
	if got := root.Total(trace.StoreAccesses); got == 0 {
		t.Fatal("disk-backed historic query recorded no store accesses")
	}
	if got := root.Total(trace.PagerReads); got == 0 {
		t.Fatal("disk-backed historic query recorded no pager reads")
	}
}

func TestUntracedPathsUnchanged(t *testing.T) {
	// Query/QueryCtx with a bare context must agree with each other
	// and leave no trace side effects.
	c := traceTestCube(t)
	r := Range{TimeLo: 1, TimeHi: 2, Lo: []int{0, 0}, Hi: []int{7, 7}}
	v1, err := c.Query(r)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.QueryCtx(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	//histlint:ignore nofloateq identical query plans over identical state must agree bitwise
	if v1 != v2 {
		t.Fatalf("Query=%v QueryCtx=%v, want identical", v1, v2)
	}
}
