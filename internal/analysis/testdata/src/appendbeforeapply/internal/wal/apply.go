// Package wal is the one place allowed to apply ops: Apply logs each op
// before the cube applies it, and Replay re-applies what the log
// already holds.
package wal

import "example.com/appendbeforeapply/internal/core"

type Log struct {
	ops []core.Op
}

func (l *Log) Apply(c *core.Cube, op core.Op) error {
	l.ops = append(l.ops, op)
	return c.ApplyOp(op)
}

func Replay(c *core.Cube, ops []core.Op) error {
	for _, op := range ops {
		if err := c.ApplyOp(op); err != nil {
			return err
		}
	}
	return nil
}
