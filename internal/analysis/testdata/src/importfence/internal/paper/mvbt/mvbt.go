// Package mvbt stands in for a paper-reference structure.
package mvbt

type Tree struct{}
