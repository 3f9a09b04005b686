// Command histserve (stub) demonstrates the confinement violation the
// server binary is checked for.
package main

import "example.com/appendbeforeapply/internal/core"

func main() {
	c := &core.Cube{}
	_ = c.ApplyOp(core.Op{Cell: 1, Value: 2}) // want `core ApplyOp bypasses the op sink`
}
