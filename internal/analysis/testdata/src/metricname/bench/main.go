// Command bench is a nested module that replaces the fixture's: its
// files read like tests do. It names a histogram by its _count series.
package main

import "fmt"

func main() { fmt.Println(`histcube_latency_seconds_count{le="+Inf"}`) }
