package lib

import (
	"container/heap"
	"errors"
	"fmt"
)

func Unused() {} // want `lib.Unused is referenced by no non-test file`

var UnusedVar = 1 // want `lib.UnusedVar is referenced by no non-test file`

const UnusedConst = 2 // want `lib.UnusedConst is referenced by no non-test file`

// TestOnly is called from lib_test.go alone.
func TestOnly() int { return 1 } // want `lib.TestOnly is referenced by no non-test file`

// Recursive calls itself and nothing else calls it.
func Recursive(n int) int { // want `lib.Recursive is referenced by no non-test file`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Used is called from cmd/app.
func Used() {}

// Tool is called from the nested module tool/ alone.
func Tool() {}

// Kept has no caller and says why it stays.
//
//histlint:ignore deadexport the fixture's justified exception
func Kept() {}

type Shape struct{}

// Area is reached through the local interface areaer.
func (Shape) Area() float64 { return 1 }

func (Shape) Perimeter() float64 { return 0 } // want `\(lib.Shape\).Perimeter is referenced by no non-test file`

type areaer interface{ Area() float64 }

func total(a areaer) float64 { return a.Area() }

// sizer is a module interface that Bag implements, but nothing calls
// Size through it.
type sizer interface{ Size() int }

type Bag struct{}

func (Bag) Size() int { return 0 } // want `\(lib.Bag\).Size is referenced by no non-test file`

func keep(s sizer) sizer { return s }

// Volume is called through solid, but Sheet has no Area, so no call
// through solid reaches Sheet.Volume.
type solid interface {
	Area() float64
	Volume() float64
}

func weight(s solid) float64 { return s.Volume() }

type Sheet struct{}

func (Sheet) Volume() float64 { return 0 } // want `\(lib.Sheet\).Volume is referenced by no non-test file`

// Temp is printed through fmt.Stringer.
type Temp float64

func (t Temp) String() string { return fmt.Sprint(float64(t)) }

// queue is driven by container/heap through heap.Interface.
type queue []int

func (q queue) Len() int           { return len(q) }
func (q queue) Less(i, j int) bool { return q[i] < q[j] }
func (q queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)        { *q = append(*q, x.(int)) }
func (q *queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

func drain(q *queue) { heap.Init(q) }

// wrapErr is unwrapped by package errors, which finds Unwrap through
// any.
type wrapErr struct{ err error }

func (w wrapErr) Error() string { return "wrapped: " + w.err.Error() }
func (w wrapErr) Unwrap() error { return w.err }

func isWrapped(err, target error) bool { return errors.Is(err, target) }

// Box is generic; cmd/app calls Get on Box[int].
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }
