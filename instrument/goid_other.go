//go:build !amd64 && !arm64

package instrument

import "unsafe"

// haveGetg reports that this GOARCH has no getg stub: goroutineID
// always parses runtime.Stack.
const haveGetg = false

// getg is never called without the stub; it exists so goid.go builds.
func getg() unsafe.Pointer { return nil }
