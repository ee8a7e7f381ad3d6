//go:build amd64 || arm64

package instrument

import "unsafe"

// haveGetg reports that this GOARCH has the assembly getg stub.
const haveGetg = true

// getg returns the calling goroutine's runtime g struct (goid_*.s).
func getg() unsafe.Pointer
