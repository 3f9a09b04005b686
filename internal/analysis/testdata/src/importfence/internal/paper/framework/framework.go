// Package framework may use its neighbours behind the fence.
package framework

import "example.com/importfence/internal/paper/mvbt"

type AppendOnly struct{ T mvbt.Tree }
