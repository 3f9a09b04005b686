// Package core is on the serving path: appendcube yes, paper no.
package core

import (
	"example.com/importfence/internal/appendcube"
	_ "example.com/importfence/internal/paper/framework" // want `internal/core may not import .*internal/paper/framework: the paper-reference structures are reproduction-only`
)

type Cube struct{ Inner appendcube.Cube }
