package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tempest"
	"tempest/instrument"
	"tempest/internal/introspect"
	"tempest/internal/parser"
	"tempest/internal/trace"
)

// request-churn is the goroutine-per-request server shape: a dispatcher
// spawns a fresh goroutine per request, at most two in flight, and each
// request runs a seeded handler tree whose functions open with exactly
// the prologue tempest-instrument emits, in detail mode.

var handlerNames = []string{"svc.serve", "svc.decode", "svc.auth", "svc.route", "svc.lookup",
	"svc.cache_get", "svc.query", "svc.merge", "svc.render", "svc.encode"}

// handlerSlots registers the handler functions once per process, as
// generated init-time code does.
var handlerSlots = instrument.Register("tempest/perfbench/svc", handlerNames)

// handlerTree is one seeded request shape: node i runs function i, does
// work[i] rounds of arithmetic and calls kids[i].
type handlerTree struct {
	work []int
	kids [][]int
}

// requestWork is the arithmetic rounds one request does in total. The
// seed splits it among the functions but does not change it, so every
// seed asks the same work of a request.
const requestWork = 5000

// requestLevels is how many functions sit at each depth of a request's
// call tree, root first. The seed picks each function's parent on the
// level above and splits the work, but does not change the levels: each
// request goroutine's lane keeps a shadow stack as deep as the tree, and
// the detail hook's goroutine-id lookup walks the caller's stack, so
// levels that varied with the seed would make node_rss_mb and the cost
// per event properties of the seed.
var requestLevels = []int{1, 3, 3, 3}

func newHandlerTree(seed int64) *handlerTree {
	rng := rand.New(rand.NewSource(seed))
	h := &handlerTree{work: make([]int, len(handlerNames)), kids: make([][]int, len(handlerNames))}
	weights := make([]int, len(handlerNames))
	total := 0
	for i := range weights {
		weights[i] = 1 + rng.Intn(9)
		total += weights[i]
	}
	// Functions are numbered level by level; each one below the root
	// hangs off a function of the level above.
	above, first := 0, 1
	for _, n := range requestLevels[1:] {
		for i := first; i < first+n; i++ {
			p := above + rng.Intn(first-above)
			h.kids[p] = append(h.kids[p], i)
		}
		above, first = first, first+n
	}
	left := requestWork
	for i, w := range weights {
		h.work[i] = requestWork * w / total
		left -= h.work[i]
	}
	h.work[0] += left
	return h
}

func spin(n int) uint64 {
	x := uint64(n) | 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// serve is an instrumented handler: the prologue is the one
// tempest-instrument generates.
func (h *handlerTree) serve(i int) uint64 {
	defer instrument.Trace(handlerSlots[i])()
	x := spin(h.work[i])
	for _, k := range h.kids[i] {
		x += h.serve(k)
	}
	return x
}

// serveTimed is serve with the hook and its exit closure timed, for
// the traced run's 1-in-hookSample requests.
func (h *handlerTree) serveTimed(i int, hookNS *int64, calls *int64) uint64 {
	t0 := time.Now()
	exit := instrument.Trace(handlerSlots[i])
	t1 := time.Now()
	x := spin(h.work[i])
	for _, k := range h.kids[i] {
		x += h.serveTimed(k, hookNS, calls)
	}
	t2 := time.Now()
	exit()
	*hookNS += int64(t1.Sub(t0) + time.Since(t2))
	*calls++
	return x
}

const (
	// churnSetups session starts are timed per run; each takes well under
	// a millisecond, so the median needs more of them than ship-*.
	churnSetups = 51
	// churnRequestsPerSecond sets the attached phase to this many requests
	// per second of --seconds: a fixed amount of work, so the lane count
	// (and the memory and drain cost it brings) is the same on every run.
	// On a 2-vCPU host the attached phase takes about two thirds of
	// --seconds.
	churnRequestsPerSecond = 5000
	inFlight               = 2
	hookSample             = 16
	maxLatency             = 1 << 20
)

// dispatcher runs requests, one fresh goroutine each.
type dispatcher struct {
	h      *handlerTree
	rec    *spanRecorder // nil in untraced passes
	sink   atomic.Uint64
	lat    []float64 // ms, one per request while room lasts
	nlat   atomic.Int64
	hookNS atomic.Int64
	hooks  atomic.Int64
}

// run serves count requests.
func (d *dispatcher) run(count int, record bool) {
	sem := make(chan struct{}, inFlight)
	var wg sync.WaitGroup
	for n := 0; n < count; n++ {
		sem <- struct{}{}
		wg.Add(1)
		t0 := time.Now()
		go func(n int) {
			defer wg.Done()
			var x uint64
			if d.rec != nil && record && n%hookSample == 0 {
				// A log per sampled request: a spanLog belongs to one
				// goroutine, and requests run in parallel.
				l := d.rec.log()
				sp := l.begin("request", 0)
				var ns, calls int64
				x = d.h.serveTimed(0, &ns, &calls)
				d.hookNS.Add(ns)
				d.hooks.Add(calls)
				l.add("instrument.Trace", sp.ID, time.Duration(ns))
				l.end(sp)
			} else {
				x = d.h.serve(0)
			}
			d.sink.Add(x)
			if record {
				if i := d.nlat.Add(1) - 1; i < int64(len(d.lat)) {
					d.lat[i] = ms(time.Since(t0))
				}
			}
			<-sem
		}(n)
	}
	wg.Wait()
}

func runChurn(e *env) (*report, error) {
	rep := &report{e2e: map[string]float64{}, layers: map[string]float64{}}
	h := newHandlerTree(e.seed)
	noHwmon := filepath.Join(e.dir, "no-hwmon")
	if err := os.MkdirAll(noHwmon, 0o755); err != nil {
		return rep, err
	}
	var maxLane atomic.Uint32
	var setups []float64
	var sess *tempest.LiveSession
	var reg *introspect.Registry
	for i := 0; i < churnSetups; i++ {
		reg = introspect.New()
		t0 := time.Now()
		s, err := tempest.NewLiveSession(tempest.LiveConfig{
			HwmonRoot: noHwmon, AllowSimulatedSensors: true, Unit: parser.Celsius, NodeID: 1,
			LaneBufferCap: tempest.DefaultLaneBufferCap, Introspect: reg,
			DrainSink: func(ev []trace.Event, _ *trace.SymTab) {
				for i := range ev {
					if l := ev[i].Lane; l+1 > maxLane.Load() {
						maxLane.Store(l + 1)
					}
				}
			},
		})
		if err != nil {
			return rep, fmt.Errorf("set-up: %w", err)
		}
		instrument.SetDefaultMode(instrument.ModeDetail)
		s.EnableAutoInstrument()
		setups = append(setups, time.Since(t0).Seconds())
		if i < churnSetups-1 {
			if _, err := s.Close(); err != nil {
				return rep, err
			}
			continue
		}
		sess = s
	}

	d := &dispatcher{h: h, rec: e.rec, lat: make([]float64, maxLatency)}
	calib := calibrate(nil)
	self0, rt0, host0 := selfCPU(), readRuntime(), readHostTicks()
	t0 := time.Now()
	requests := int(churnRequestsPerSecond * e.seconds.Seconds())
	d.run(requests, true)
	attached := time.Since(t0)
	self1, rt1, host1 := selfCPU(), readRuntime(), readHostTicks()
	// Snapshot drains every lane first, so the resident set is read with
	// no events waiting in lane buffers: what stays is the lanes and the
	// profile, not where the 500 ms drain tick happened to fall.
	if _, err := sess.Snapshot(); err != nil {
		return rep, fmt.Errorf("session snapshot: %w", err)
	}
	rep.e2e["node_rss_mb"] = retainedRSSMiB()
	sess.DisableAutoInstrument()
	t1 := time.Now()
	d.run(requests, false)
	detached := time.Since(t1)
	sc := newScaling(calibrate(calib), stealShare(host0, host1))
	scDetached := scaling{steal: stealShare(host1, readHostTicks()), speed: sc.speed}
	prof, err := sess.Close()
	if err != nil {
		return rep, fmt.Errorf("session close: %w", err)
	}

	callsPerReq := uint64(len(handlerNames))
	events := uint64(requests) * callsPerReq * 2
	var dropped float64
	var drainSum float64
	var drainN int
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "tempest_live_lane_overflow_total":
			dropped = s.Value
		case "tempest_live_drain_seconds":
			drainSum, drainN = s.Dist.Sum, s.Dist.N
		}
	}
	rep.attempted = int64(2 * requests)
	rep.failed = int64(dropped)

	w := e.out
	fmt.Fprintf(w, "# %s: goroutine per request, %d in flight, %d instrumented functions per request in detail mode\n",
		churn, inFlight, callsPerReq)
	setup := median(setups)
	rep.e2e["setup_s"] = sc.cpu(setup)
	line(w, "setup_s", rep.e2e["setup_s"], "s", fmt.Sprintf("(scaled; median of %d session starts through Attach)", len(setups)))
	wallRate := float64(events) / attached.Seconds()
	rep.e2e["events_per_s"] = sc.rate(wallRate)
	line(w, "events_per_s", rep.e2e["events_per_s"], "events/s",
		fmt.Sprintf("(scaled; %d requests, %d hook events attached in %.3fs wall)", requests, events, attached.Seconds()))
	line(w, "requests_per_s", sc.rate(float64(requests)/attached.Seconds()), "req/s", "(scaled, detail tracing attached)")
	line(w, "slowdown_x", sc.wall(attached.Seconds())/scDetached.wall(detached.Seconds()), "ratio",
		fmt.Sprintf("(attached %.3fs / detached %.3fs wall for the same %d requests, each in unstolen time)", attached.Seconds(), detached.Seconds(), requests))
	n := d.nlat.Load()
	if n > int64(len(d.lat)) {
		n = int64(len(d.lat))
	}
	lat := d.lat[:n]
	p50, err50 := pctLine(w, "request_p50_ms", lat, 0.50, "ms")
	pctLine(w, "request_p90_ms", lat, 0.90, "ms")
	_, err99 := pctLine(w, "request_p99_ms", lat, 0.99, "ms")
	// Steal comes in bursts longer than a request, so it delays few of
	// them and leaves the median where it was: this latency is scaled for
	// host speed only.
	rep.e2e["latency_p50_ms"] = sc.cpu(p50.Value)
	line(w, "latency_p50_ms", rep.e2e["latency_p50_ms"], "ms", "(request_p50_ms, scaled for host speed)")
	nodeCPU := float64(self1-self0) / 1e3 / float64(events)
	rep.e2e["node_cpu_us_per_event"] = sc.cpu(nodeCPU)
	line(w, "node_cpu_us_per_event", rep.e2e["node_cpu_us_per_event"], "us", "(scaled; attached phase)")
	rssLine(w, rep)
	sc.print(w, map[string]float64{"setup_s": setup, "events_per_s": wallRate, "latency_p50_ms": p50.Value,
		"node_cpu_us_per_event": nodeCPU, "node_rss_mb": rep.e2e["node_rss_mb"]})

	if len(prof.Nodes) != 1 {
		return rep, fmt.Errorf("session profile has %d nodes", len(prof.Nodes))
	}
	got := map[string]int64{}
	for _, f := range prof.Nodes[0].Functions {
		got[f.Name] = f.Calls
	}
	// The tree calls every handler function exactly once per request.
	want := map[string]uint64{}
	for _, name := range handlerNames {
		want[name] = uint64(requests)
	}
	if err := checkTally("session profile", got, want); err != nil {
		return rep, fmt.Errorf("correctness: %w", err)
	}
	if err50 != nil || err99 != nil {
		return rep, fmt.Errorf("too few request latency samples")
	}
	if rep.failed > 0 {
		return rep, fmt.Errorf("%d events dropped at lanes", rep.failed)
	}
	fmt.Fprintf(w, "failures: 0 of %d attempted requests\n", rep.attempted)

	if e.rec == nil {
		return rep, nil
	}
	L := rep.layers
	hookNS, hooks := d.hookNS.Load(), d.hooks.Load()
	L["instrument.trace_ns"] = float64(hookNS) / float64(hooks)
	L["trace.lanes"] = float64(maxLane.Load())
	if drainN > 0 {
		L["trace.drain_ms"] = 1e3 * drainSum / float64(drainN)
	}
	L["trace.dropped_events"] = dropped
	runtimeLayers(L, rt0, rt1, events)
	// Hooks were timed on 1 in hookSample requests; scale to all.
	hookCPU := time.Duration(float64(hookNS) * float64(uint64(requests)*callsPerReq) / float64(hooks))
	rep.cpu = []cpuShare{{process: "node", total: self1 - self0, layers: []layerCPU{
		{"instrument.Trace detail hooks (sampled, scaled)", hookCPU},
		{"trace.Drain + parser fold (LiveSession drain)", secs(drainSum)}}}}
	return rep, nil
}
