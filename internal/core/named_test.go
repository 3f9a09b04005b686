package core

import (
	"testing"

	"histcube/internal/agg"
)

func TestQueryNamed(t *testing.T) {
	c, err := New(Config{
		Dims:     []Dim{{Name: "store", Size: 6}, {Name: "product", Size: 10}},
		Operator: agg.Sum,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(1, []int{2, 5}, 10); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(2, []int{3, 5}, 7); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(2, []int{2, 9}, 3); err != nil {
		t.Fatal(err)
	}

	got, err := c.QueryNamed(0, 10, map[string]Constraint{"store": Point(2)})
	if err != nil {
		t.Fatal(err)
	}
	if got != 13 {
		t.Errorf("store=2 -> %v, want 13", got)
	}
	got, err = c.QueryNamed(0, 10, map[string]Constraint{"product": Span(0, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if got != 17 {
		t.Errorf("product 0-8 -> %v, want 17", got)
	}
	got, err = c.QueryNamed(0, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Errorf("unconstrained -> %v, want 20", got)
	}
	if _, err := c.QueryNamed(0, 10, map[string]Constraint{"nope": Point(0)}); err == nil {
		t.Error("unknown dimension accepted")
	}
	if _, err := c.QueryNamed(0, 10, map[string]Constraint{"store": Span(2, 99)}); err == nil {
		t.Error("out-of-domain constraint accepted")
	}
}
