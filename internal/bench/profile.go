package bench

import (
	"os"
	"runtime/pprof"
)

// StartCPUProfile starts a CPU profile written to path and returns the
// function that stops it and closes the file; the profile is complete
// only once stop has run. An empty path profiles nothing.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
