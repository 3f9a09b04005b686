// Package agg models the invertible aggregate operators the paper's
// framework supports: SUM, COUNT, and AVERAGE maintained as SUM and
// COUNT. An operator is invertible when partial aggregates can be
// subtracted out, which is what lets the framework answer a range in
// the transaction-time dimension as the difference of two cumulative
// (prefix-time) queries.
package agg

import (
	"errors"
	"fmt"
)

// Operator identifies an aggregate operator.
type Operator int

const (
	// Sum aggregates measure values by addition.
	Sum Operator = iota
	// Count counts data points; each insert contributes 1.
	Count
	// Average is maintained as the pair (Sum, Count) and finalised as
	// Sum/Count.
	Average
	// Min is listed only to document that non-invertible operators are
	// rejected by the framework.
	Min
	// Max is listed only to document that non-invertible operators are
	// rejected by the framework.
	Max
)

// ErrNotInvertible reports that an operator cannot be used with the
// prefix-difference framework (e.g. MIN/MAX).
var ErrNotInvertible = errors.New("agg: operator is not invertible; the framework supports SUM, COUNT and AVERAGE only")

// String returns the operator's conventional upper-case name.
func (op Operator) String() string {
	switch op {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Average:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("Operator(%d)", int(op))
	}
}

// Invertible reports whether the operator admits subtraction of
// partial aggregates.
func (op Operator) Invertible() bool {
	switch op {
	case Sum, Count, Average:
		return true
	default:
		return false
	}
}

// Validate returns ErrNotInvertible for operators the framework cannot
// support and nil otherwise.
func (op Operator) Validate() error {
	if !op.Invertible() {
		return fmt.Errorf("%w: got %s", ErrNotInvertible, op)
	}
	return nil
}

// Value is a partial aggregate: a running sum and a running count.
// SUM reads Sum, COUNT reads Count, AVERAGE finalises Sum/Count.
type Value struct {
	Sum   float64
	Count float64
}

// Neg returns the additive inverse.
func (v Value) Neg() Value { return Value{Sum: -v.Sum, Count: -v.Count} }

// Point converts one data point with measure value m into the partial
// aggregate it contributes under operator op.
func Point(op Operator, m float64) Value {
	switch op {
	case Sum:
		return Value{Sum: m, Count: 1}
	case Count:
		return Value{Sum: 1, Count: 1}
	case Average:
		return Value{Sum: m, Count: 1}
	default:
		panic("agg: Point called with non-invertible operator " + op.String())
	}
}

// Finalize converts a partial aggregate into the operator's scalar
// result. AVERAGE of an empty range is defined as 0.
func Finalize(op Operator, v Value) float64 {
	switch op {
	case Sum:
		return v.Sum
	case Count:
		return v.Count
	case Average:
		//histlint:ignore nofloateq Count accumulates exact small integers (±1 per point), so zero is exact and means an empty range
		if v.Count == 0 {
			return 0
		}
		return v.Sum / v.Count
	default:
		panic("agg: Finalize called with non-invertible operator " + op.String())
	}
}
