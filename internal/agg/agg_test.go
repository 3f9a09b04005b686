package agg

import (
	"errors"
	"testing"
)

func TestOperatorString(t *testing.T) {
	cases := map[Operator]string{
		Sum: "SUM", Count: "COUNT", Average: "AVG", Min: "MIN", Max: "MAX",
		Operator(42): "Operator(42)",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(op), got, want)
		}
	}
}

func TestInvertible(t *testing.T) {
	for _, op := range []Operator{Sum, Count, Average} {
		if !op.Invertible() {
			t.Errorf("%s.Invertible() = false", op)
		}
		if err := op.Validate(); err != nil {
			t.Errorf("%s.Validate() = %v", op, err)
		}
	}
	for _, op := range []Operator{Min, Max, Operator(99)} {
		if op.Invertible() {
			t.Errorf("%s.Invertible() = true", op)
		}
		if err := op.Validate(); !errors.Is(err, ErrNotInvertible) {
			t.Errorf("%s.Validate() = %v, want ErrNotInvertible", op, err)
		}
	}
}

func TestValueArithmetic(t *testing.T) {
	a := Value{Sum: 5, Count: 2}
	if got := a.Neg(); got != (Value{Sum: -5, Count: -2}) {
		t.Errorf("Neg = %+v", got)
	}
}

func TestPointContribution(t *testing.T) {
	if got := Point(Sum, 7.5); got != (Value{Sum: 7.5, Count: 1}) {
		t.Errorf("Point(Sum) = %+v", got)
	}
	if got := Point(Count, 7.5); got != (Value{Sum: 1, Count: 1}) {
		t.Errorf("Point(Count) = %+v", got)
	}
	if got := Point(Average, 7.5); got != (Value{Sum: 7.5, Count: 1}) {
		t.Errorf("Point(Average) = %+v", got)
	}
}

func TestPointPanicsOnNonInvertible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Point(Min) did not panic")
		}
	}()
	Point(Min, 1)
}

func TestFinalize(t *testing.T) {
	v := Value{Sum: 10, Count: 4}
	if got := Finalize(Sum, v); got != 10 {
		t.Errorf("Finalize(Sum) = %v", got)
	}
	if got := Finalize(Count, v); got != 4 {
		t.Errorf("Finalize(Count) = %v", got)
	}
	if got := Finalize(Average, v); got != 2.5 {
		t.Errorf("Finalize(Average) = %v", got)
	}
	if got := Finalize(Average, Value{}); got != 0 {
		t.Errorf("Finalize(Average, empty) = %v, want 0", got)
	}
}

func TestFinalizePanicsOnNonInvertible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Finalize(Max) did not panic")
		}
	}()
	Finalize(Max, Value{})
}
