// Command histbench (stub) drives the experiments.
package main

import (
	_ "example.com/importfence/internal/experiments"
	_ "example.com/importfence/internal/paper/framework"
)

func main() {}
