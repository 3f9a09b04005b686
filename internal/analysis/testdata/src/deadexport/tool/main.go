// Command tool is a nested module: its uses count, its code is not
// checked.
package main

import "example.com/deadexport/internal/lib"

func main() { lib.Tool() }
