// Package appendcube is the served engine's storage layer.
package appendcube

type Cube struct{}
