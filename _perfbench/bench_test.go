package main

import (
	"errors"
	"reflect"
	"slices"
	"testing"
)

// genRun drives one node of the generator for a fixed op count and
// returns its call tally and hooked event count.
func genRun(t *testing.T, seed int64) (map[string]uint64, uint64) {
	t.Helper()
	n, err := newGenNode(newCallGraph(seed), seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.step(3 * 4096); err != nil {
		t.Fatal(err)
	}
	if err := n.finish(); err != nil {
		t.Fatal(err)
	}
	if got := n.tr.EventCount(); got != n.hooked {
		t.Fatalf("tracer recorded %d events, generator hooked %d", got, n.hooked)
	}
	return n.tally(), n.hooked
}

func TestSameSeedSameTally(t *testing.T) {
	a, na := genRun(t, 7)
	b, nb := genRun(t, 7)
	if na != nb {
		t.Fatalf("event counts differ: %d vs %d", na, nb)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("tallies differ for the same seed:\n%v\n%v", a, b)
	}
	var calls uint64
	for _, c := range a {
		calls += c
	}
	if 2*calls != na {
		t.Fatalf("tally has %d calls for %d balanced events", calls, na)
	}
}

func TestDifferentSeedDifferentTally(t *testing.T) {
	a, _ := genRun(t, 7)
	b, _ := genRun(t, 8)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 7 and 8 gave the same tally")
	}
}

func TestCallGraphHasWaits(t *testing.T) {
	g := newCallGraph(3)
	if len(g.names) != numFuncs {
		t.Fatalf("%d functions, want %d", len(g.names), numFuncs)
	}
	s := g.script(1)
	var mpi uint64
	for f := numFuncs - len(mpiNames); f < numFuncs; f++ {
		mpi += s.calls[f]
	}
	if mpi == 0 {
		t.Fatal("script calls no MPI_* wait function")
	}
}

func TestPercentileCountsAndRefuses(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	p, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 1000 || p.Value != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (n=1000)", p)
	}
	if p, err := percentile(xs[:999], 0.99); !errors.Is(err, errFewSamples) || p.N != 999 {
		t.Fatalf("p99 of 999 samples: %v, %v; want refusal reporting n=999", p, err)
	}
	if _, err := percentile(make([]float64, 20), 0.5); err != nil {
		t.Fatalf("p50 of 20 samples refused: %v", err)
	}
	if _, err := percentile(make([]float64, 19), 0.5); !errors.Is(err, errFewSamples) {
		t.Fatalf("p50 of 19 samples: %v, want refusal", err)
	}
	if _, err := percentile(nil, 0.5); !errors.Is(err, errFewSamples) {
		t.Fatalf("p50 of no samples: %v, want refusal", err)
	}
}

func TestHandlerTreeCoversEveryFunction(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		h := newHandlerTree(seed)
		perLevel := make([]int, len(requestLevels)+1)
		var walk func(i, level int)
		walk = func(i, level int) {
			perLevel[min(level, len(requestLevels))]++
			for _, k := range h.kids[i] {
				walk(k, level+1)
			}
		}
		walk(0, 0)
		if !slices.Equal(perLevel[:len(requestLevels)], requestLevels) || perLevel[len(requestLevels)] != 0 {
			t.Fatalf("seed %d: functions per level %v, want %v", seed, perLevel, requestLevels)
		}
		work := 0
		for _, w := range h.work {
			work += w
		}
		if work != requestWork {
			t.Fatalf("seed %d: request does %d rounds of work, want %d", seed, work, requestWork)
		}
	}
}

// The traced request-churn pass records spans from parallel request
// goroutines; run under -race this checks they share no span log.
func TestDispatcherTracedSpans(t *testing.T) {
	const requests = 4 * hookSample * inFlight
	rec := newSpanRecorder()
	d := &dispatcher{h: newHandlerTree(2), rec: rec, lat: make([]float64, requests)}
	d.run(requests, true)
	agg, dropped := rec.aggregate()
	sampled := requests / hookSample
	count := func(name string) int {
		if agg[name] == nil {
			return 0
		}
		return agg[name].Count
	}
	if dropped != 0 || count("request") != sampled || count("instrument.Trace") != sampled {
		t.Fatalf("spans: %+v, %d dropped; want %d request and instrument.Trace spans", agg, dropped, sampled)
	}
	if got := d.hooks.Load(); got != int64(sampled*len(handlerNames)) {
		t.Fatalf("%d timed hooks, want %d", got, sampled*len(handlerNames))
	}
}
