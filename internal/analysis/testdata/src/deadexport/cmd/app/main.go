package main

import "example.com/deadexport/internal/lib"

func main() {
	lib.Used()
	var b lib.Box[int]
	_ = b.Get()
}
