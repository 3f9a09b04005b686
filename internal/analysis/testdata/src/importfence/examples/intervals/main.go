// Command intervals (stub) is an example of the library surface.
package main

import _ "example.com/importfence/internal/paper/framework"

func main() {}
