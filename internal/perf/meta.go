package perf

import (
	"runtime"
	"runtime/debug"
	"time"
)

// RunMeta attributes a benchmark report to the build and machine that
// produced it. benchmark/ embeds it in every result and cmd/histbench
// in every -json report, and both servers answer VERSION from it, so a
// number stays attributable to the revision that produced it.
type RunMeta struct {
	Tool       string `json:"tool"`
	GitRev     string `json:"git_rev"`
	GitDirty   bool   `json:"git_dirty,omitempty"`
	Date       string `json:"date"` // RFC 3339, UTC
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// CollectMeta gathers RunMeta for the running tool. The git revision
// comes from the build info VCS stamp, which go build writes in a git
// checkout; `go run` and test binaries carry none, and report
// "unknown".
func CollectMeta(tool string) RunMeta {
	m := RunMeta{
		Tool:       tool,
		GitRev:     "unknown",
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitRev = s.Value
			case "vcs.modified":
				m.GitDirty = s.Value == "true"
			}
		}
	}
	return m
}
