package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tempest/internal/critpath"
	"tempest/internal/parser"
	"tempest/internal/trace"
)

// offline-parse is the paper's own workflow on one thread: record the
// seeded stream into a tracer, write it with the trace file codec, then
// parse it the way tempest-parse -critpath does.

const (
	offlineChunk  = 4096
	offlineEvents = 1 << 19 // hook events recorded per set-up
	offlineSetups = 5       // recording passes per run; setup_s is their median
)

// recording is one recorded node stream, as drained chunks.
type recording struct {
	chunks [][]trace.Event
	sym    *trace.SymTab
	events uint64
	tally  map[string]uint64
	hooks  time.Duration
	ops    uint64
}

func record(seed int64) (*recording, error) {
	n, err := newGenNode(newCallGraph(seed), seed, 1)
	if err != nil {
		return nil, err
	}
	sens, err := startSensors(n.tr)
	if err != nil {
		return nil, err
	}
	r := &recording{}
	drain := func() {
		ev, sym := n.tr.Drain()
		r.chunks = append(r.chunks, ev)
		r.sym = sym
		r.events += uint64(len(ev))
	}
	for n.hooked < offlineEvents {
		t0 := time.Now()
		err := n.step(offlineChunk)
		r.hooks += time.Since(t0)
		if err != nil {
			sens.stop()
			return nil, err
		}
		sens.advance()
		drain()
	}
	if err := n.finish(); err != nil {
		sens.stop()
		return nil, err
	}
	if err := sens.stop(); err != nil {
		return nil, err
	}
	drain()
	if d := n.tr.DroppedCount(); d > 0 {
		return nil, fmt.Errorf("recording dropped %d events", d)
	}
	r.tally, r.ops = n.tally(), n.hooked
	return r, nil
}

// passTimes is one write-then-parse pass over the recording, timed with
// the working thread's CPU clock: on an unshared host that is its wall
// time, and it leaves out time the hypervisor stole from the vCPU.
type passTimes struct {
	write, scan, build, crit time.Duration
	chunkMS                  []float64 // write+parse time per chunk
	bytes                    int64
}

func writeTrace(path string, r *recording, l *spanLog, pt *passTimes) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sp := l.begin("trace.write", 0)
	t0 := threadCPU()
	w, err := trace.NewWriter(f, 1, 0)
	if err != nil {
		f.Close()
		return err
	}
	for i, ch := range r.chunks {
		s := l.begin("trace.Writer.Flush", sp.ID)
		c0 := threadCPU()
		if err := w.Flush(ch, r.sym); err != nil {
			f.Close()
			return err
		}
		if pt != nil {
			pt.chunkMS[i] += ms(threadCPU() - c0)
		}
		l.end(s)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if pt != nil {
		pt.write = threadCPU() - t0
		pt.bytes = int64(w.Bytes())
	}
	l.end(sp)
	return nil
}

// parseTrace scans the file into a Builder and a critpath Analyzer and
// checks the result against the recording.
func parseTrace(path string, r *recording, l *spanLog, pt *passTimes) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sp := l.begin("trace.parse", 0)
	sc, err := trace.NewScanner(bufio.NewReader(f))
	if err != nil {
		return err
	}
	b := parser.NewBuilder(sc.NodeID(), sc.Sym(), parser.Options{Unit: parser.Celsius})
	a := critpath.New(critpath.Options{})
	for i := 0; ; i++ {
		s := l.begin("trace.Scanner.Next", sp.ID)
		c0 := threadCPU()
		batch, err := sc.Next()
		c1 := threadCPU()
		l.end(s)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		s = l.begin("parser.Builder.Add", sp.ID)
		if err := b.Add(batch); err != nil {
			return err
		}
		c2 := threadCPU()
		l.end(s)
		s = l.begin("critpath.Analyzer.Add", sp.ID)
		if err := a.Add(sc.NodeID(), sc.Sym(), batch); err != nil {
			return err
		}
		c3 := threadCPU()
		l.end(s)
		pt.scan += c1 - c0
		pt.build += c2 - c1
		pt.crit += c3 - c2
		if i < len(pt.chunkMS) {
			pt.chunkMS[i] += ms(c3 - c0)
		}
	}
	l.end(sp)
	if sc.Events() != r.events {
		return fmt.Errorf("scanner decoded %d events, %d written", sc.Events(), r.events)
	}
	np, err := b.Finish()
	if err != nil {
		return err
	}
	got := map[string]int64{}
	for _, fp := range np.Functions {
		got[fp.Name] = fp.Calls
	}
	if err := checkTally("parsed profile", got, r.tally); err != nil {
		return err
	}
	if n := a.StackAnomalies(); n != 0 {
		return fmt.Errorf("critpath reports %d stack anomalies", n)
	}
	if np.DroppedEvents != 0 {
		return fmt.Errorf("parsed profile reports %d dropped events", np.DroppedEvents)
	}
	return nil
}

// mallocs reads the exact heap allocation count (stops the world).
func mallocs() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.Mallocs
}

func runOffline(e *env) (*report, error) {
	// Locked so threadCPU measures this goroutine's passes alone.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rep := &report{e2e: map[string]float64{}, layers: map[string]float64{}}
	var setups []float64
	var r *recording
	for i := 0; i < offlineSetups; i++ {
		r = nil
		runtime.GC()
		t0 := time.Now()
		rr, err := record(e.seed)
		if err != nil {
			return rep, fmt.Errorf("recording: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		r = rr
	}
	path := filepath.Join(e.dir, "offline.tpst")
	l := e.rec.log()

	var passes []passTimes
	calib := calibrate(nil)
	self0, rt0 := selfCPU(), readRuntime()
	start := time.Now()
	for len(passes) < 2 || time.Since(start) < e.seconds {
		pt := passTimes{chunkMS: make([]float64, len(r.chunks))}
		if err := writeTrace(path, r, l, &pt); err != nil {
			return rep, fmt.Errorf("write: %w", err)
		}
		if err := parseTrace(path, r, l, &pt); err != nil {
			rep.attempted, rep.failed = int64(r.events), 1
			return rep, fmt.Errorf("correctness: %w", err)
		}
		passes = append(passes, pt)
	}
	wall := time.Since(start)
	self1, rt1 := selfCPU(), readRuntime()
	rep.e2e["node_rss_mb"] = retainedRSSMiB()
	// Passes are timed with the thread CPU clock, so steal is left out
	// already.
	sc := newScaling(calibrate(calib), 0)
	total := r.events * uint64(len(passes))
	rep.attempted = int64(total)

	var rates, writeRates, parseRates, chunkMS []float64
	var write, scan, build, crit time.Duration
	for _, p := range passes {
		parse := p.scan + p.build + p.crit
		rates = append(rates, float64(r.events)/(p.write+parse).Seconds())
		writeRates = append(writeRates, float64(r.events)/p.write.Seconds())
		parseRates = append(parseRates, float64(r.events)/parse.Seconds())
		chunkMS = append(chunkMS, p.chunkMS...)
		write += p.write
		scan += p.scan
		build += p.build
		crit += p.crit
	}
	w := e.out
	fmt.Fprintf(w, "# %s: %d events recorded on %d lanes, written as %d-event segments, parsed to profile plus critpath; %d passes\n",
		offline, r.events, lanesPerNode, offlineChunk, len(passes))
	setup := median(setups)
	rep.e2e["setup_s"] = sc.cpu(setup)
	line(w, "setup_s", rep.e2e["setup_s"], "s", fmt.Sprintf("(scaled; median of %d recording passes)", len(setups)))
	rep.e2e["events_per_s"] = sc.rate(median(rates))
	line(w, "events_per_s", rep.e2e["events_per_s"], "events/s", "(scaled; write plus parse, median pass, thread CPU time)")
	line(w, "events_per_wall_s", float64(total)/wall.Seconds(), "events/s", "(all passes, wall time)")
	line(w, "write_events_per_s", sc.rate(median(writeRates)), "events/s", "(scaled, median pass)")
	line(w, "parse_events_per_s", sc.rate(median(parseRates)), "events/s", "(scaled; file to profile plus critpath, median pass)")
	p50, err50 := pctLine(w, "chunk_p50_ms", chunkMS, 0.50, "ms")
	pctLine(w, "chunk_p90_ms", chunkMS, 0.90, "ms")
	_, err99 := pctLine(w, "chunk_p99_ms", chunkMS, 0.99, "ms")
	rep.e2e["latency_p50_ms"] = sc.cpu(p50.Value)
	line(w, "latency_p50_ms", rep.e2e["latency_p50_ms"], "ms", "(chunk_p50_ms, scaled)")
	nodeCPU := float64(self1-self0) / 1e3 / float64(total)
	rep.e2e["node_cpu_us_per_event"] = sc.cpu(nodeCPU)
	line(w, "node_cpu_us_per_event", rep.e2e["node_cpu_us_per_event"], "us", "(scaled)")
	rssLine(w, rep)
	sc.print(w, map[string]float64{"setup_s": setup, "events_per_s": median(rates), "latency_p50_ms": p50.Value,
		"node_cpu_us_per_event": nodeCPU, "node_rss_mb": rep.e2e["node_rss_mb"]})
	if err50 != nil || err99 != nil {
		return rep, errors.New("too few chunk latency samples")
	}
	fmt.Fprintf(w, "failures: 0 of %d attempted events (drops 0, stack anomalies 0)\n", rep.attempted)

	if e.rec == nil {
		return rep, nil
	}
	L := rep.layers
	L["trace.enter_exit_ns"] = float64(r.hooks) / (float64(r.ops) / 2)
	L["trace.dropped_events"] = 0
	L["trace.write_ns_per_event"] = perEvent(float64(write), total)
	L["trace.scan_ns_per_event"] = perEvent(float64(scan), total)
	L["parser.add_ns_per_event"] = perEvent(float64(build), total)
	L["critpath.add_ns_per_event"] = perEvent(float64(crit), total)
	L["trace.file_bytes_per_event"] = float64(passes[0].bytes) / float64(r.events)
	runtimeLayers(L, rt0, rt1, total)
	if err := allocLayers(L, path, r); err != nil {
		return rep, err
	}
	rep.cpu = []cpuShare{{process: "node", total: self1 - self0, layers: []layerCPU{
		{"trace.Writer.Flush", write}, {"trace.Scanner.Next", scan},
		{"parser.Builder.Add", build}, {"critpath.Analyzer.Add", crit}}}}
	return rep, nil
}

// allocLayers counts allocations per event of the writer, the scanner
// and the builder, each in a pass of its own.
func allocLayers(L map[string]float64, path string, r *recording) error {
	m0 := mallocs()
	if err := writeTrace(path, r, nil, nil); err != nil {
		return err
	}
	m1 := mallocs()
	L["trace.write_allocs_per_event"] = perEvent(float64(m1-m0), r.events)

	m0 = mallocs()
	if _, err := scanAll(path, false); err != nil {
		return err
	}
	m1 = mallocs()
	L["trace.scan_allocs_per_event"] = perEvent(float64(m1-m0), r.events)

	batches, err := scanAll(path, true)
	if err != nil {
		return err
	}
	m0 = mallocs()
	b := parser.NewBuilder(1, r.sym, parser.Options{Unit: parser.Celsius})
	for _, batch := range batches {
		if err := b.Add(batch); err != nil {
			return err
		}
	}
	m1 = mallocs()
	L["parser.add_allocs_per_event"] = perEvent(float64(m1-m0), r.events)
	return nil
}

// scanAll reads every batch of a trace file, keeping copies if asked
// (Next reuses its slice).
func scanAll(path string, keep bool) ([][]trace.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc, err := trace.NewScanner(bufio.NewReader(f))
	if err != nil {
		return nil, err
	}
	var out [][]trace.Event
	for {
		batch, err := sc.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, append([]trace.Event(nil), batch...))
		}
	}
}
