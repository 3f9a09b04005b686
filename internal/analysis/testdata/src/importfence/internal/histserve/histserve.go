// Package histserve (stub) reaches past the core facade and over the
// fence.
package histserve

import (
	"example.com/importfence/internal/appendcube" // want `histserve must mutate through the core facade`
	"example.com/importfence/internal/core"
	"example.com/importfence/internal/paper/mvbt" // want `internal/histserve may not import .*internal/paper/mvbt`
)

func serve() {
	_ = appendcube.Cube{}
	_ = core.Cube{}
	_ = mvbt.Tree{}
}
