package instrument

import (
	"sync"
	"testing"

	"tempest/internal/trace"
)

// laneOf runs one top-level detail call on a fresh goroutine and
// returns the lane it recorded on.
func laneOf(t *testing.T, tr *trace.Tracer, slot int) uint32 {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Trace(slot)()
	}()
	<-done
	events, _ := tr.Snapshot()
	return events[len(events)-1].Lane
}

func TestReleasedLaneWaitsForDrain(t *testing.T) {
	resetPolicy(t)
	tr := newTracer(t)
	slots := Register("pkg/reuse", []string{"pkg.Reuse"})
	Attach(tr)
	defer Detach(tr)

	a := laneOf(t, tr, slots[0])
	if b := laneOf(t, tr, slots[0]); b == a {
		t.Fatalf("lane %d was reused before a drain emptied it", a)
	}
	tr.Drain()
	if c := laneOf(t, tr, slots[0]); c != a {
		t.Fatalf("after a drain the next goroutine got lane %d, want the oldest released lane %d", c, a)
	}
}

func TestStickyLaneDoesNotBlockFreeList(t *testing.T) {
	resetPolicy(t)
	tr := newTracer(t)
	slots := Register("pkg/sticky", []string{"pkg.Sticky"})
	Attach(tr)
	defer Detach(tr)

	// This goroutine's lane is queued first, then another goroutine's.
	Trace(slots[0])()
	mine, _ := tr.Snapshot()
	own := mine[len(mine)-1].Lane
	other := laneOf(t, tr, slots[0])
	tr.Drain()
	// Taking its lane back and freeing it again leaves this goroutine's
	// free-list entry at the head with an undrained release.
	Trace(slots[0])()
	if got := laneOf(t, tr, slots[0]); got != other {
		t.Fatalf("new goroutine got lane %d, want drained lane %d (own lane %d)", got, other, own)
	}
}

func TestDepthZeroCallsStayOnOneLane(t *testing.T) {
	resetPolicy(t)
	tr := newTracer(t)
	slots := Register("pkg/loop", []string{"pkg.Loop"})
	Attach(tr)
	defer Detach(tr)

	const calls = 10_000
	for i := 0; i < calls; i++ {
		Trace(slots[0])()
	}
	events, _ := tr.Drain()
	if len(events) != 2*calls {
		t.Fatalf("got %d events, want %d", len(events), 2*calls)
	}
	for _, e := range events {
		if e.Lane != events[0].Lane {
			t.Fatalf("depth-0 calls moved from lane %d to lane %d", events[0].Lane, e.Lane)
		}
	}
	b := active.Load()
	b.mu.Lock()
	queued := len(b.free)
	b.mu.Unlock()
	if queued != 1 {
		t.Fatalf("free list holds %d entries after %d releases of one lane, want 1", queued, calls)
	}
}

func TestShortLivedGoroutinesBoundLanes(t *testing.T) {
	resetPolicy(t)
	tr := newTracer(t)
	slots := Register("pkg/churn", []string{"pkg.ChurnServe", "pkg.ChurnWork"})
	Attach(tr)
	defer Detach(tr)

	const (
		goroutines = 100_000
		drainEvery = 1_000
		inFlight   = 8
	)
	var maxLane uint32
	var events int
	drain := func() {
		ev, _ := tr.Drain()
		events += len(ev)
		for _, e := range ev {
			maxLane = max(maxLane, e.Lane)
		}
	}
	sem := make(chan struct{}, inFlight)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		if i%drainEvery == 0 {
			drain()
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			defer Trace(slots[0])()
			Trace(slots[1])()
		}()
	}
	wg.Wait()
	drain()

	if d := tr.DroppedCount(); d != 0 {
		t.Fatalf("%d events dropped", d)
	}
	if want := 4 * goroutines; events != want {
		t.Fatalf("drained %d events, want %d", events, want)
	}
	// Lane 0 is the tracer's own; the binding may hold one lane per
	// goroutine in flight plus one per goroutine started since the
	// last drain.
	lanes := int(maxLane) + 1
	if bound := 1 + inFlight + drainEvery; lanes > bound {
		t.Fatalf("%d goroutines used %d lanes, bound %d", goroutines, lanes, bound)
	}
	t.Logf("%d goroutines used %d lanes", goroutines, lanes)
}

func TestConcurrentReuseStaysBalanced(t *testing.T) {
	resetPolicy(t)
	tr := newTracer(t)
	slots := Register("pkg/mixed", []string{"pkg.MixedOuter", "pkg.MixedInner"})
	Attach(tr)
	defer Detach(tr)

	// Long-lived goroutines make repeated top-level calls while
	// short-lived ones come and go and a drainer empties lanes, so slots
	// are taken back, freed and taken over concurrently.
	var all []trace.Event
	stop := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			ev, _ := tr.Drain()
			all = append(all, ev...)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	const loopers, calls, spawns = 4, 500, 2000
	call := func() {
		defer Trace(slots[0])()
		Trace(slots[1])()
	}
	var wg sync.WaitGroup
	for i := 0; i < loopers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				call()
			}
		}()
	}
	sem := make(chan struct{}, 4)
	for i := 0; i < spawns; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			call()
		}()
	}
	wg.Wait()
	close(stop)
	<-drained
	ev, _ := tr.Drain()
	all = append(all, ev...)

	// Drains take a lane's whole buffer, so concatenating them in order
	// keeps every lane's stream in order.
	if want := 4 * (loopers*calls + spawns); len(all) != want {
		t.Fatalf("drained %d events, want %d", len(all), want)
	}
	checkBalanced(t, all)
}
