//go:build !amd64

package main

import "runtime"

// cpuModel names only the architecture where no CPUID reader exists.
func cpuModel() string { return "unknown " + runtime.GOARCH }
