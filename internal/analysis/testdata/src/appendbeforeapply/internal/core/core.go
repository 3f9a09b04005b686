// Package core is a stub of the facade the appendbeforeapply analyzer
// guards: ApplyOp is its one mutation path, Insert the library
// shorthand over it, and the storage layer's Update is confined to
// apply.
package core

import "example.com/appendbeforeapply/internal/appendcube"

type Op struct {
	Cell  int
	Value float64
}

type Cube struct {
	inner *appendcube.Cube
}

func (c *Cube) apply(op Op) {
	c.inner.Update(op.Cell, op.Value)
	c.inner.UpdateCtx(nil, op.Cell, 0)
}

func (c *Cube) ApplyOp(op Op) error {
	c.apply(op)
	return nil
}

func (c *Cube) Insert(cell int, v float64) error {
	return c.ApplyOp(Op{Cell: cell, Value: v})
}

func (c *Cube) Query(cell int) float64 { return 0 }

func (c *Cube) Rebuild(ops []Op) {
	for _, op := range ops {
		c.inner.Update(op.Cell, op.Value) // want `appendcube\.Cube\.Update called outside apply`
	}
}

func (c *Cube) RebuildCtx(done <-chan struct{}, ops []Op) {
	for _, op := range ops {
		c.inner.UpdateCtx(done, op.Cell, op.Value) // want `appendcube\.Cube\.UpdateCtx called outside apply`
	}
}
