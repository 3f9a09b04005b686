// Command histserve (stub) demonstrates the confinement violations the
// server binary is checked for: its mutations go through the log.
package main

import (
	"example.com/appendbeforeapply/internal/core"
	"example.com/appendbeforeapply/internal/wal"
)

func main() {
	c := &core.Cube{}
	l := &wal.Log{}
	_ = l.Apply(c, core.Op{Cell: 1, Value: 2})
	_ = c.Query(1)
	_ = c.ApplyOp(core.Op{Cell: 1, Value: 2}) // want `core\.Cube\.ApplyOp bypasses the log`
	_ = c.Insert(1, 2)                        // want `cmd/histserve calls core\.Cube\.Insert`
}
