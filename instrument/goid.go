package instrument

import (
	"runtime"
	"sync"
	"unsafe"
)

// Goroutine identity. Detail mode keys lanes by goroutine id, and the
// runtime does not export it. Parsing the "goroutine N [running]:"
// header of runtime.Stack is portable but costs microseconds a call and
// takes a global lock; reading the id field out of the runtime's g
// struct through the getg stub (goid_amd64.s, goid_arm64.s) costs a few
// nanoseconds. The field's byte offset is not exported either, so it is
// calibrated once at init by matching the stack-parsed ids of several
// live goroutines against every word of their g structs. Other GOARCHes,
// and a runtime whose layout yields no unique offset, keep the parse.

const (
	// goidScanWords bounds the calibration scan to the first 256 bytes of
	// g. Every Go release's g is larger than that (the id sits at byte
	// 160 on go1.24 amd64/arm64), so the scan stays inside the struct.
	goidScanWords = 32
	// goidProbes is how many goroutines calibration compares; the init
	// goroutine is one more.
	goidProbes = 8
)

// goidOffset is the byte offset of the goroutine id in g, or -1 when
// goroutineID must parse runtime.Stack.
var goidOffset = calibrateGoidOffset()

// goroutineID returns the calling goroutine's id.
func goroutineID() uint64 {
	if off := goidOffset; off >= 0 {
		return *(*uint64)(unsafe.Add(getg(), off))
	}
	return stackGoroutineID()
}

// stackGoroutineID parses the current goroutine's id from its stack
// header ("goroutine 123 [running]: …").
func stackGoroutineID() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	// Skip "goroutine ".
	var id uint64
	for _, c := range buf[10:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// goidProbe is one goroutine's stack-parsed id and the leading words of
// its g, read while it runs.
type goidProbe struct {
	id    uint64
	words [goidScanWords]uint64
}

func probeGoid() goidProbe {
	return goidProbe{id: stackGoroutineID(), words: *(*[goidScanWords]uint64)(getg())}
}

// calibrateGoidOffset finds the one word offset at which every probed
// goroutine's g holds its id, or returns -1.
func calibrateGoidOffset() int {
	if !haveGetg {
		return -1
	}
	probes := make([]goidProbe, goidProbes+1)
	probes[goidProbes] = probeGoid()
	var wg sync.WaitGroup
	for i := 0; i < goidProbes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probes[i] = probeGoid()
		}()
	}
	wg.Wait()
	return matchGoidOffset(probes)
}

// matchGoidOffset returns the byte offset of the only word that equals
// the id in every probe, or -1 if no word or more than one does.
func matchGoidOffset(probes []goidProbe) int {
	found := -1
	for w := 0; w < goidScanWords; w++ {
		match := true
		for _, p := range probes {
			if p.words[w] != p.id {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		if found >= 0 {
			return -1
		}
		found = w * 8
	}
	return found
}
