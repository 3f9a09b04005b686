// Package experiments regenerates the paper's figures from both sides
// of the fence.
package experiments

import (
	"example.com/importfence/internal/appendcube"
	"example.com/importfence/internal/paper/framework"
)

var (
	_ appendcube.Cube
	_ framework.AppendOnly
)
