package tempest

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tempest/instrument"
	"tempest/internal/trace"
)

// The goroutine-per-request server shape (the Atys microservice
// workload, PAPERS.md): a dispatcher spawns one goroutine per request,
// and each request runs a small tree of auto-instrumented handlers in
// detail mode. Every request goroutine is new to the tracer, so this is
// the shape where goroutine identity and lane lifetime decide the cost.

var churnSink atomic.Uint64

var (
	churnOnce  sync.Once
	churnSlots []int
	churnIters int // arithmetic rounds for ~50 µs of work
)

// churnNames are the handler functions, root first; the root calls each
// of the others once, so a request makes len(churnNames) calls.
var churnNames = []string{"churn.serve", "churn.decode", "churn.query", "churn.render"}

func churnSetup() {
	churnOnce.Do(func() {
		churnSlots = instrument.Register("tempest/churn_e2e", churnNames)
		const probe = 200_000
		t0 := time.Now()
		churnWork(probe)
		per := float64(time.Since(t0)) / probe
		churnIters = int(math.Max(1, float64(50*time.Microsecond)/per))
	})
}

func churnWork(n int) {
	s := float64(churnSink.Load() & 0xff)
	for i := 0; i < n; i++ {
		s += math.Sqrt(s + float64(i))
	}
	churnSink.Add(uint64(s) & 1)
}

func churnHandler(i int) {
	defer instrument.Trace(churnSlots[i])()
	churnWork(churnIters)
}

func churnServe() {
	defer instrument.Trace(churnSlots[0])()
	churnWork(churnIters)
	for i := 1; i < len(churnSlots); i++ {
		churnHandler(i)
	}
}

// churnRun serves requests, one fresh goroutine each, at most inFlight
// at a time, and returns the wall time.
func churnRun(requests, inFlight int) time.Duration {
	sem := make(chan struct{}, inFlight)
	var wg sync.WaitGroup
	t0 := time.Now()
	for n := 0; n < requests; n++ {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			churnServe()
			<-sem
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// TestRequestChurnDetailUnderPaperBound runs goroutine-per-request
// traffic through a live session with every handler in detail mode. The
// profile must count every call, no lane may overflow, the tracer's
// lanes must stay far below one per request, and the hooks must cost
// the requests under the paper's §3.4 7 % bound — measured against the
// same requests detached, best of five attempts as in
// TestLiveOverheadUnderPaperBound.
func TestRequestChurnDetailUnderPaperBound(t *testing.T) {
	resetInstrument(t)
	churnSetup()
	const (
		requests = 4000
		inFlight = 2
		attempts = 5
	)
	churnRun(requests/10, inFlight) // warm up
	best := math.Inf(1)
	for i := 0; i < attempts; i++ {
		base := churnRun(requests, inFlight)

		cfg := e2eLiveConfig(t, 10*time.Millisecond)
		cfg.LaneBufferCap = DefaultLaneBufferCap
		var lanes atomic.Uint32
		cfg.DrainSink = func(ev []trace.Event, _ *trace.SymTab) {
			for _, e := range ev {
				if e.Lane+1 > lanes.Load() {
					lanes.Store(e.Lane + 1)
				}
			}
		}
		s, err := NewLiveSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.EnableAutoInstrument()
		traced := churnRun(requests, inFlight)
		dropped := s.tracer.DroppedCount()
		p, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}

		if dropped != 0 {
			t.Fatalf("attempt %d: %d events dropped at lanes", i+1, dropped)
		}
		calls := map[string]int64{}
		for _, f := range p.Nodes[0].Functions {
			calls[f.Name] = f.Calls
		}
		for _, name := range churnNames {
			if calls[name] != requests {
				t.Fatalf("attempt %d: %s called %d times, want %d", i+1, name, calls[name], requests)
			}
		}
		if n := lanes.Load(); n > requests/8 {
			t.Fatalf("attempt %d: %d requests used %d lanes; released lanes are not reused", i+1, requests, n)
		}

		overhead := float64(traced-base) / float64(base)
		t.Logf("attempt %d: detached %v, traced %v, overhead %.4f, %d lanes", i+1, base, traced, overhead, lanes.Load())
		best = math.Min(best, overhead)
		if best < 0.07 || raceEnabled {
			break
		}
	}
	if raceEnabled {
		t.Skipf("-race build: wall-clock overhead %.4f not checked", best)
	}
	if best >= 0.07 {
		t.Fatalf("detail-mode overhead %.4f on every attempt, paper bound <0.07", best)
	}
}
