package instrument

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tempest/internal/trace"
)

// growStack recurses with a large frame so the goroutine's stack is
// copied to a bigger one before the id is read.
func growStack(depth int) uint64 {
	var pad [256]byte
	pad[depth%len(pad)] = byte(depth)
	if depth == 0 {
		return uint64(pad[0])
	}
	return growStack(depth-1) + uint64(pad[depth%len(pad)])
}

func TestGoroutineIDMatchesStack(t *testing.T) {
	if haveGetg && goidOffset < 0 {
		t.Fatal("getg stub present but calibration found no unique goid offset")
	}
	const total, batch = 10_000, 100
	var mismatches, checked atomic.Int64
	check := func() {
		checked.Add(1)
		if got, want := goroutineID(), stackGoroutineID(); got != want {
			if mismatches.Add(1) == 1 {
				t.Errorf("goroutineID() = %d, runtime.Stack says %d", got, want)
			}
		}
	}
	for start := 0; start < total; start += batch {
		var wg sync.WaitGroup
		for i := start; i < start+batch; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				check()
				if i%10 == 0 {
					_ = growStack(200) // ~50 KiB of frames: several stack copies
					check()
				}
			}()
		}
		wg.Wait()
		if start%1000 == 0 {
			runtime.GC()
			check()
		}
	}
	if n := mismatches.Load(); n != 0 {
		t.Fatalf("%d of %d ids differ from the stack-parsed id", n, checked.Load())
	}
	if checked.Load() < total {
		t.Fatalf("checked %d ids, want at least %d", checked.Load(), total)
	}
}

func TestMatchGoidOffset(t *testing.T) {
	probe := func(id uint64, at ...int) goidProbe {
		p := goidProbe{id: id}
		for w := range p.words {
			p.words[w] = id + 1000
		}
		for _, w := range at {
			p.words[w] = id
		}
		return p
	}
	cases := []struct {
		name   string
		probes []goidProbe
		want   int
	}{
		{"unique", []goidProbe{probe(7, 20), probe(9, 20, 3)}, 160},
		{"ambiguous", []goidProbe{probe(7, 20, 3), probe(9, 20, 3)}, -1},
		{"none", []goidProbe{probe(7, 20), probe(9, 21)}, -1},
	}
	for _, c := range cases {
		if got := matchGoidOffset(c.probes); got != c.want {
			t.Errorf("%s: offset %d, want %d", c.name, got, c.want)
		}
	}
}

// uncalibrated forces goroutineID onto the runtime.Stack fallback for
// the rest of the test.
func uncalibrated(t *testing.T) {
	t.Helper()
	saved := goidOffset
	goidOffset = -1
	t.Cleanup(func() { goidOffset = saved })
}

func TestFallbackTracesBalancedLanes(t *testing.T) {
	resetPolicy(t)
	uncalibrated(t)
	if got, want := goroutineID(), stackGoroutineID(); got != want {
		t.Fatalf("fallback goroutineID() = %d, want %d", got, want)
	}
	tr := newTracer(t)
	slots := Register("pkg/fallback", []string{"pkg.FallbackOuter", "pkg.FallbackInner"})
	Attach(tr)
	defer Detach(tr)

	const workers, calls = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				func() {
					defer Trace(slots[0])()
					Trace(slots[1])()
				}()
			}
		}()
	}
	wg.Wait()

	events, _ := tr.Snapshot()
	if len(events) != 4*calls*workers {
		t.Fatalf("got %d events, want %d", len(events), 4*calls*workers)
	}
	checkBalanced(t, events)
}

// checkBalanced fails unless every lane's enter/exit stream nests and
// ends at depth 0.
func checkBalanced(t *testing.T, events []trace.Event) {
	t.Helper()
	stacks := map[uint32][]uint32{}
	for _, e := range events {
		switch e.Kind {
		case trace.KindEnter:
			stacks[e.Lane] = append(stacks[e.Lane], e.FuncID)
		case trace.KindExit:
			st := stacks[e.Lane]
			if len(st) == 0 || st[len(st)-1] != e.FuncID {
				t.Fatalf("lane %d: exit of %d does not match open stack %v", e.Lane, e.FuncID, st)
			}
			stacks[e.Lane] = st[:len(st)-1]
		}
	}
	for lane, st := range stacks {
		if len(st) != 0 {
			t.Fatalf("lane %d finished at depth %d", lane, len(st))
		}
	}
}
