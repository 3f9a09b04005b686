// Command histserve (stub) reaches past the core facade and over the
// fence.
package main

import (
	"example.com/importfence/internal/appendcube" // want `histserve must mutate through the core facade`
	"example.com/importfence/internal/core"
	"example.com/importfence/internal/paper/mvbt" // want `cmd/histserve may not import .*internal/paper/mvbt`
)

func main() {
	_ = appendcube.Cube{}
	_ = core.Cube{}
	_ = mvbt.Tree{}
}
