package metricname

import "testing"

// TestReads is the fixture's reader: histcube_requests_total is named
// with its value, as a scrape renders it, so both of its registration
// sites have a reader. The near-misses name nothing: a family's name
// ends at a character outside [a-z0-9_], and starts at one.
func TestReads(t *testing.T) {
	_ = []string{
		"histcube_requests_total 1",
		"histproxy_shard_upx",
		"xhistserve_queue_depth",
	}
}
