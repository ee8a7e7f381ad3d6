package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"tempest/internal/collect"
	"tempest/internal/introspect"
)

// The ship workloads run two simulated nodes inside this process, each
// shipping to a tempest-collectd child over loopback, while a dashboard
// client polls the query API on a fixed schedule.

type shipConfig struct {
	name  string
	chunk int  // hook events per shipped chunk
	disk  bool // -store-dir on the real disk, retention off
}

var shipConfigs = map[string]shipConfig{
	shipMem:  {name: shipMem, chunk: 4096},
	shipDisk: {name: shipDisk, chunk: 256, disk: true},
}

const (
	shipNodes = 2
	// window is the closed-loop bound on unacked chunks per node, well
	// under the shipper's QueueLen of 256, so a healthy run drops nothing.
	window = 8
	// shipSetups set-ups are timed per run; setup_s is their median.
	shipSetups = 15
	// The dashboard runs two open-loop schedules side by side.
	//
	// pollEvery paces /api/nodes. Each poll is one query-latency sample
	// and one freshness sample per node, and a p99 needs 1000 samples:
	// 1000 polls in a 15-second run.
	pollEvery = 15 * time.Millisecond
	// hotspotsEvery paces ship-mem's /api/hotspots?k=10 at tempd's 4 Hz
	// sample rate, the rate at which the heat it ranks changes.
	hotspotsEvery = 250 * time.Millisecond
	// On ship-disk the second schedule alternates /api/hotspots?window=
	// and /api/series/{node}?from=&to= over the trailing queryWindow.
	// Each endpoint is read once per queryWindow, so its successive
	// windows tile the run: every stored second is read back once by
	// each. Both go through store.ReadRange and the window LRU. Each read
	// also decodes all history before its window, so the cost grows over
	// the run; with a 1 s window the schedule fell up to 3.9 s behind in a
	// 15 s run, close to maxLate, and 2 s halves the read load.
	queryWindow  = 2 * time.Second
	historyEvery = queryWindow / 2
	// maxLate is how far the open-loop dashboard may fall behind its
	// schedule before the remaining queries count as failed.
	maxLate = 5 * time.Second
)

// collectd is one tempest-collectd child process.
type collectd struct {
	cmd                 *exec.Cmd
	ingest, http, debug string
	waited              bool
}

func startCollectd(bin, storeDir string) (*collectd, error) {
	args := []string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-unit", "C", "-log-level", "warn"}
	if storeDir != "" {
		args = append(args, "-store-dir", storeDir)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tempest-collectd: %w", err)
	}
	c := &collectd{cmd: cmd}
	linec := make(chan string, 1)
	go func() {
		l, _ := bufio.NewReader(stdout).ReadString('\n')
		linec <- l
		io.Copy(io.Discard, stdout)
	}()
	select {
	case l := <-linec:
		for _, tok := range strings.Fields(l) {
			k, v, _ := strings.Cut(tok, "=")
			switch k {
			case "ingest":
				c.ingest = v
			case "http":
				c.http = "http://" + v
			case "debug":
				c.debug = "http://" + v
			}
		}
	case <-time.After(30 * time.Second):
	}
	if c.ingest == "" || c.http == "" || c.debug == "" {
		c.stop()
		return nil, errors.New("tempest-collectd did not report its addresses")
	}
	return c, nil
}

// stop terminates the child gracefully and waits for it; it returns
// the child's peak RSS in MiB.
func (c *collectd) stop() (float64, error) {
	if c.waited {
		return 0, nil
	}
	c.waited = true
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
		err = errors.New("tempest-collectd did not stop on SIGTERM")
	}
	var rss float64
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	return rss, err
}

// mark records, per shipped chunk, the cumulative event count and the
// hook time of its newest event.
type mark struct {
	cum  uint64
	hook time.Time
}

type shipNode struct {
	*genNode
	sens *sensorDaemon
	sh   *collect.Shipper
	reg  *introspect.Registry

	mu sync.Mutex
	// marks holds the chunks from the newest one /api/nodes has shown on;
	// older ones are dropped, so the benchmark's own memory stays flat.
	marks  []mark // guarded by mu
	cum    uint64 // guarded by mu
	chunks int    // guarded by mu

	wait, hooks, drain, ship time.Duration
	shipErrs                 int64
	// cpu is the generator thread's CPU time per layer (hooks, drain,
	// ship), taken only in a traced pass.
	cpu [3]time.Duration
}

func newShipNode(g *callGraph, seed int64, id uint32, ingest string) (*shipNode, error) {
	gn, err := newGenNode(g, seed, id)
	if err != nil {
		return nil, err
	}
	sens, err := startSensors(gn.tr)
	if err != nil {
		return nil, err
	}
	n := &shipNode{genNode: gn, sens: sens, reg: introspect.New()}
	n.sh = collect.NewShipper(ingest, id, 0, collect.ShipperOptions{Introspect: n.reg, FlushTimeout: 30 * time.Second})
	return n, nil
}

// close flushes the shipper and stops the sensors.
func (n *shipNode) close() error {
	err := n.sh.Close()
	if serr := n.sens.stop(); err == nil {
		err = serr
	}
	return err
}

// flush waits for room in the closed-loop window, drains the tracer and
// ships the batch. hook is when the batch's newest event was hooked: the
// time spent waiting for the window counts toward its staleness.
func (n *shipNode) flush(l *spanLog, parent uint32, hook time.Time) {
	n.sens.advance()
	traced := l != nil
	sp := l.begin("collect.window_wait", parent)
	t0 := time.Now()
	// Back off from 20µs to 1ms while the window is full, so a slow
	// collector does not show up as node CPU spent polling.
	for pause := 20 * time.Microsecond; n.sh.Queued() >= window; pause = min(2*pause, time.Millisecond) {
		time.Sleep(pause)
	}
	drained := time.Now()
	n.wait += drained.Sub(t0)
	l.end(sp)
	sp = l.begin("trace.Drain", parent)
	var c0 time.Duration
	if traced {
		c0 = threadCPU()
	}
	ev, sym := n.tr.Drain()
	if traced {
		n.cpu[1] += threadCPU() - c0
	}
	l.end(sp)
	// The mark goes in before Ship: the collector may fold the chunk and
	// the dashboard see it before Ship returns.
	n.mu.Lock()
	n.cum += uint64(len(ev))
	n.chunks++
	n.marks = append(n.marks, mark{n.cum, hook})
	n.mu.Unlock()
	t1 := time.Now()
	n.drain += t1.Sub(drained)
	sp = l.begin("collect.Ship", parent)
	if traced {
		c0 = threadCPU()
	}
	if err := n.sh.Ship(ev, sym); err != nil {
		n.shipErrs++
	}
	if traced {
		n.cpu[2] += threadCPU() - c0
	}
	n.ship += time.Since(t1)
	l.end(sp)
}

// generate drives the node until deadline in chunk-sized steps, then
// finishes every lane's cycle and ships the remainder.
func (n *shipNode) generate(l *spanLog, chunk int, deadline time.Time) error {
	// Locked so the thread's CPU clock measures this goroutine alone.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for time.Now().Before(deadline) {
		sp := l.begin("node.chunk", 0)
		var c0 time.Duration
		if l != nil {
			c0 = threadCPU()
		}
		t0 := time.Now()
		err := n.step(chunk)
		hook := time.Now()
		d := hook.Sub(t0)
		if l != nil {
			n.cpu[0] += threadCPU() - c0
		}
		n.hooks += d
		l.add("trace.hooks", sp.ID, d)
		if err != nil {
			return err
		}
		n.flush(l, sp.ID, hook)
		l.end(sp)
	}
	if err := n.finish(); err != nil {
		return err
	}
	n.flush(l, 0, time.Now())
	return nil
}

// hookTime returns the hook time of the newest event among the first
// count shipped, and whether count falls exactly on a chunk boundary.
// The collector's counts only grow, so marks before the one found are
// not needed again.
func (n *shipNode) hookTime(count uint64) (time.Time, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	i := sort.Search(len(n.marks), func(i int) bool { return n.marks[i].cum > count })
	if i == 0 {
		return time.Time{}, false
	}
	m := n.marks[i-1]
	n.marks = n.marks[i-1:]
	return m.hook, m.cum == count
}

// cluster is one set-up: a collectd child and the shipping nodes.
type cluster struct {
	cd    *collectd
	nodes []*shipNode
	store string
}

func setupCluster(e *env, g *callGraph, store string) (*cluster, time.Duration, error) {
	t0 := time.Now()
	cd, err := startCollectd(e.collectd, store)
	if err != nil {
		return nil, 0, err
	}
	c := &cluster{cd: cd, store: store}
	for i := 0; i < shipNodes; i++ {
		n, err := newShipNode(g, e.seed, uint32(i+1), cd.ingest)
		if err != nil {
			c.teardown()
			return nil, 0, err
		}
		c.nodes = append(c.nodes, n)
		// A symbols-only chunk: its ack proves the path is live without
		// shipping any generated event.
		if err := n.sh.Ship(nil, n.tr.SymTab()); err != nil {
			c.teardown()
			return nil, 0, err
		}
	}
	for _, n := range c.nodes {
		for n.sh.Stats().AckedSegments < 1 {
			if time.Since(t0) > 60*time.Second {
				c.teardown()
				return nil, 0, errors.New("no ack from the collector within 60s")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return c, time.Since(t0), nil
}

func (c *cluster) teardown() {
	for _, n := range c.nodes {
		_ = n.close()
	}
	_, _ = c.cd.stop()
	if c.store != "" {
		_ = os.RemoveAll(c.store)
	}
}

// schedule is one open-loop stream of dashboard queries: query i is due
// at start + i*every and is timed from then.
type schedule struct {
	every time.Duration
	// next returns the i-th query's kind and URL.
	next func(i int) (kind, url string)
}

// schedules returns the dashboard's query streams for cfg.
func schedules(cfg shipConfig, c *cluster) []schedule {
	base := c.cd.http
	nodes := schedule{pollEvery, func(int) (string, string) { return "/api/nodes", base + "/api/nodes" }}
	if !cfg.disk {
		return []schedule{nodes, {hotspotsEvery, func(int) (string, string) {
			return "/api/hotspots", base + "/api/hotspots?k=10"
		}}}
	}
	return []schedule{nodes, {historyEvery, func(i int) (string, string) {
		if i%2 == 0 {
			return "/api/hotspots?window", base + "/api/hotspots?k=10&window=" + queryWindow.String()
		}
		now := time.Now()
		node := 1 + (i/2)%shipNodes
		q := url.Values{"from": {now.Add(-queryWindow).UTC().Format(time.RFC3339Nano)}, "to": {now.UTC().Format(time.RFC3339Nano)}}
		return "/api/series?from&to", fmt.Sprintf("%s/api/series/%d?%s", base, node, q.Encode())
	}}}
}

// dashboard is what one schedule of the query client observed.
type dashboard struct {
	lat      []float64 // ms, from due time to response
	late     []float64 // ms, send time minus due time
	fresh    []float64 // ms, response time minus hook time of newest counted event
	queries  int64
	failed   int64
	mismatch int64
	history  int64 // store-backed (windowed or ranged) queries sent
}

func (d *dashboard) merge(o *dashboard) {
	d.lat = append(d.lat, o.lat...)
	d.late = append(d.late, o.late...)
	d.fresh = append(d.fresh, o.fresh...)
	d.queries += o.queries
	d.failed += o.failed
	d.mismatch += o.mismatch
	d.history += o.history
}

func newHTTPClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}}
}

func get(client *http.Client, u string) ([]byte, error) {
	resp, err := client.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return body, nil
}

func getJSON(client *http.Client, u string, v any) error {
	body, err := get(client, u)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// run issues sc's queries until deadline. A query that falls more than
// maxLate behind its due time ends the schedule: the backlog is growing
// without bound, and every query still due counts as failed.
func (d *dashboard) run(l *spanLog, client *http.Client, sc schedule, c *cluster, start, deadline time.Time) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * sc.every)
		if !due.Before(deadline) {
			return
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		sent := time.Now()
		if sent.Sub(due) > maxLate {
			for ; start.Add(time.Duration(i) * sc.every).Before(deadline); i++ {
				d.queries++
				d.failed++
			}
			return
		}
		d.late = append(d.late, ms(sent.Sub(due)))
		kind, u := sc.next(i)
		if kind != "/api/nodes" && kind != "/api/hotspots" {
			d.history++
		}
		sp := l.begin("http.GET "+kind, 0)
		body, err := get(client, u)
		done := time.Now()
		l.end(sp)
		d.queries++
		d.lat = append(d.lat, ms(done.Sub(due)))
		if err != nil {
			d.failed++
			continue
		}
		if kind == "/api/nodes" && done.Before(deadline) {
			d.observeNodes(body, c, done)
		}
	}
}

func (d *dashboard) observeNodes(body []byte, c *cluster, done time.Time) {
	var st []collect.NodeStatus
	if err := json.Unmarshal(body, &st); err != nil {
		d.failed++
		return
	}
	for _, s := range st {
		if s.NodeID < 1 || int(s.NodeID) > len(c.nodes) || s.Events == 0 {
			continue
		}
		hook, exact := c.nodes[s.NodeID-1].hookTime(s.Events)
		if !exact {
			d.mismatch++
			continue
		}
		d.fresh = append(d.fresh, ms(done.Sub(hook)))
	}
}

// debugVars reads the collector's /debug/vars: its introspect registries
// under "tempest" and the runtime memstats.
type debugVars struct {
	Tempest  map[string]json.RawMessage `json:"tempest"`
	Memstats struct {
		Mallocs       uint64  `json:"Mallocs"`
		GCCPUFraction float64 `json:"GCCPUFraction"`
	} `json:"memstats"`
}

type distVal struct {
	Count float64 `json:"count"`
	Sum   float64 `json:"sum"`
	Avg   float64 `json:"avg"`
}

func (v *debugVars) scalar(name string) float64 {
	var f float64
	_ = json.Unmarshal(v.Tempest[name], &f)
	return f
}

func (v *debugVars) dist(name string) distVal {
	var d distVal
	_ = json.Unmarshal(v.Tempest[name], &d)
	return d
}

// maxPrefixed is the largest scalar among labelled series of one family.
func (v *debugVars) maxPrefixed(family string) float64 {
	m := 0.0
	for k := range v.Tempest {
		if strings.HasPrefix(k, family+"{") {
			if f := v.scalar(k); f > m {
				m = f
			}
		}
	}
	return m
}

// fetchProfileCalls reads one node's per-function calls.
func fetchProfileCalls(client *http.Client, base string, node uint32) (map[string]int64, error) {
	var p struct {
		Nodes []struct {
			Functions []struct {
				Name  string `json:"name"`
				Calls int64  `json:"calls"`
			} `json:"functions"`
		} `json:"nodes"`
	}
	if err := getJSON(client, fmt.Sprintf("%s/api/profile/%d", base, node), &p); err != nil {
		return nil, err
	}
	if len(p.Nodes) != 1 {
		return nil, fmt.Errorf("profile of node %d: %d nodes", node, len(p.Nodes))
	}
	out := map[string]int64{}
	for _, f := range p.Nodes[0].Functions {
		out[f.Name] = f.Calls
	}
	return out, nil
}

// verifyCollector checks every node's event count and per-function calls.
func verifyCollector(client *http.Client, base string, nodes []*shipNode) error {
	var st []collect.NodeStatus
	if err := getJSON(client, base+"/api/nodes", &st); err != nil {
		return err
	}
	events := map[uint32]uint64{}
	for _, s := range st {
		if s.Err != "" {
			return fmt.Errorf("node %d: %s", s.NodeID, s.Err)
		}
		events[s.NodeID] = s.Events
	}
	for _, n := range nodes {
		if events[n.id] != n.cum {
			return fmt.Errorf("node %d: collector holds %d events, %d acked", n.id, events[n.id], n.cum)
		}
		calls, err := fetchProfileCalls(client, base, n.id)
		if err != nil {
			return err
		}
		if err := checkTally(fmt.Sprintf("node %d profile", n.id), calls, n.tally()); err != nil {
			return err
		}
	}
	return nil
}

func runShip(e *env, cfg shipConfig) (*report, error) {
	g := newCallGraph(e.seed)
	rep := &report{e2e: map[string]float64{}, layers: map[string]float64{}}
	client := newHTTPClient()
	defer client.CloseIdleConnections()

	var setups []float64
	var c *cluster
	for i := 0; i < shipSetups; i++ {
		store := ""
		if cfg.disk {
			store = filepath.Join(e.dir, fmt.Sprintf("store-%d", i))
		}
		cl, d, err := setupCluster(e, g, store)
		if err != nil {
			return rep, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		if i < shipSetups-1 {
			cl.teardown()
			continue
		}
		c = cl
	}
	defer c.teardown()

	calib := calibrate(nil)
	cpu0, err := procCPU(c.cd.cmd.Process.Pid)
	if err != nil {
		return rep, err
	}
	self0, rt0, host0 := selfCPU(), readRuntime(), readHostTicks()
	start := time.Now()
	deadline := start.Add(e.seconds)
	scheds := schedules(cfg, c)
	dashes := make([]*dashboard, len(scheds))
	var wg sync.WaitGroup
	genErrs := make([]error, len(c.nodes))
	for i, n := range c.nodes {
		wg.Add(1)
		go func(i int, n *shipNode) {
			defer wg.Done()
			genErrs[i] = n.generate(e.rec.log(), cfg.chunk, deadline)
		}(i, n)
	}
	var dashWG sync.WaitGroup
	for i, sc := range scheds {
		dashes[i] = &dashboard{}
		dashWG.Add(1)
		go func(d *dashboard, sc schedule) {
			defer dashWG.Done()
			d.run(e.rec.log(), client, sc, c, start, deadline)
		}(dashes[i], sc)
	}
	// The traced pass samples the collector's shard queues while ingest
	// runs; at the end they are empty.
	var queueMax float64
	scrapeStop, scrapeDone := make(chan struct{}), make(chan struct{})
	if e.rec != nil {
		go func() {
			defer close(scrapeDone)
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-scrapeStop:
					return
				case <-tick.C:
					var dv debugVars
					if err := getJSON(client, c.cd.debug+"/debug/vars", &dv); err == nil {
						queueMax = max(queueMax, dv.maxPrefixed("tempest_collect_shard_queue_depth"))
					}
				}
			}
		}()
	} else {
		close(scrapeDone)
	}
	wg.Wait()
	close(scrapeStop)
	<-scrapeDone
	var closeErr error
	for _, n := range c.nodes {
		if err := n.close(); err != nil && closeErr == nil {
			closeErr = err
		}
	}
	elapsed := time.Since(start)
	steal := stealShare(host0, readHostTicks())
	rep.e2e["node_rss_mb"] = retainedRSSMiB()
	dashWG.Wait()
	dash := &dashboard{}
	for _, d := range dashes {
		dash.merge(d)
	}
	self1, rt1 := selfCPU(), readRuntime()
	cpu1, err := procCPU(c.cd.cmd.Process.Pid)
	if err != nil {
		return rep, err
	}
	sc := newScaling(calibrate(calib), steal)

	var events, hooked uint64
	var lanesDropped, shipDropped, resends, shipErrs int64
	var ackSum, ackN float64
	var wait, hooks, drain, ship time.Duration
	var layerCPUs [3]time.Duration
	for _, n := range c.nodes {
		for i, d := range n.cpu {
			layerCPUs[i] += d
		}
		st := n.sh.Stats()
		events += n.cum
		hooked += n.hooked
		lanesDropped += int64(n.tr.DroppedCount())
		shipDropped += int64(st.DroppedEvents)
		resends += int64(st.Resends)
		shipErrs += n.shipErrs
		wait += n.wait
		hooks += n.hooks
		drain += n.drain
		ship += n.ship
		for _, s := range n.reg.Snapshot() {
			if s.Name == "tempest_ship_ack_rtt_seconds" {
				ackSum += s.Dist.Sum
				ackN += float64(s.Dist.N)
			}
		}
	}
	var dv debugVars
	if err := getJSON(client, c.cd.debug+"/debug/vars", &dv); err != nil {
		return rep, err
	}
	ingestErrs := int64(dv.scalar("tempest_collect_ingest_errors_total"))
	dedup := int64(dv.scalar("tempest_collect_dedup_dropped_total"))
	rep.attempted = int64(hooked) + dash.queries
	rep.failed = lanesDropped + shipDropped + resends + shipErrs + ingestErrs + dedup + dash.failed + dash.mismatch

	w := e.out
	heavy := fmt.Sprintf("/api/hotspots?k=10 every %v", hotspotsEvery)
	if cfg.disk {
		heavy = fmt.Sprintf("windowed /api/hotspots and ranged /api/series over the last %v alternating every %v", queryWindow, historyEvery)
	}
	fmt.Fprintf(w, "# %s: %d nodes x %d lanes, %d-event chunks, closed loop of %d unacked chunks per node; dashboard open loops: /api/nodes every %v, %s\n",
		cfg.name, shipNodes, lanesPerNode, cfg.chunk, window, pollEvery, heavy)
	setup := median(setups)
	rep.e2e["setup_s"] = sc.cpu(setup)
	line(w, "setup_s", rep.e2e["setup_s"], "s", fmt.Sprintf("(scaled; median of %d set-ups)", len(setups)))
	wallRate := float64(events) / elapsed.Seconds()
	rep.e2e["events_per_s"] = sc.rate(wallRate)
	line(w, "events_per_s", rep.e2e["events_per_s"], "events/s",
		fmt.Sprintf("(scaled; %d events acked and folded in %.3fs wall)", events, elapsed.Seconds()))
	fp50, err50 := pctLine(w, "fresh_p50_ms", dash.fresh, 0.50, "ms")
	pctLine(w, "fresh_p90_ms", dash.fresh, 0.90, "ms")
	_, err99 := pctLine(w, "fresh_p99_ms", dash.fresh, 0.99, "ms")
	rep.e2e["latency_p50_ms"] = sc.wall(fp50.Value)
	line(w, "latency_p50_ms", rep.e2e["latency_p50_ms"], "ms", "(fresh_p50_ms, scaled)")
	pctLine(w, "query_p50_ms", dash.lat, 0.50, "ms")
	pctLine(w, "query_p90_ms", dash.lat, 0.90, "ms")
	pctLine(w, "query_p99_ms", dash.lat, 0.99, "ms")
	nodeCPU := float64(self1-self0) / 1e3 / float64(events)
	rep.e2e["node_cpu_us_per_event"] = sc.cpu(nodeCPU)
	line(w, "node_cpu_us_per_event", rep.e2e["node_cpu_us_per_event"], "us", "(scaled; includes the dashboard client)")
	sc.print(w, map[string]float64{"setup_s": setup, "events_per_s": wallRate, "latency_p50_ms": fp50.Value,
		"node_cpu_us_per_event": nodeCPU, "node_rss_mb": rep.e2e["node_rss_mb"]})
	line(w, "collector_cpu_us_per_event", float64(cpu1-cpu0)/1e3/float64(events), "us", "")
	if late, err := percentile(dash.late, 0.99); err == nil {
		lateMax := late.Value
		for _, v := range dash.late {
			if v > lateMax {
				lateMax = v
			}
		}
		fmt.Fprintf(w, "dashboard lateness: p99 %.3f ms, max %.3f ms over %d queries\n", late.Value, lateMax, len(dash.late))
	}

	if closeErr != nil {
		return rep, fmt.Errorf("shipper close: %w", closeErr)
	}
	for _, err := range genErrs {
		if err != nil {
			return rep, fmt.Errorf("generator: %w", err)
		}
	}
	if err := verifyCollector(client, c.cd.http, c.nodes); err != nil {
		return rep, fmt.Errorf("correctness: %w", err)
	}

	collectorRSS, err := c.cd.stop()
	if err != nil {
		return rep, err
	}
	var restarted *debugVars
	var recovery time.Duration
	if cfg.disk {
		if restarted, recovery, err = recoverStore(e, c, client, events); err != nil {
			return rep, err
		}
	}
	rssLine(w, rep)
	line(w, "collector_rss_mb", collectorRSS, "MiB", "")
	if err50 != nil || err99 != nil {
		return rep, errors.New("too few freshness samples")
	}
	if rep.failed > 0 {
		return rep, fmt.Errorf("%d failed operations: lane drops %d, shipper drops %d, resends %d, ship errors %d, ingest errors %d, dedup drops %d, failed queries %d, freshness mismatches %d",
			rep.failed, lanesDropped, shipDropped, resends, shipErrs, ingestErrs, dedup, dash.failed, dash.mismatch)
	}
	fmt.Fprintf(w, "failures: 0 of %d attempted (hooked events plus queries)\n", rep.attempted)

	if e.rec == nil {
		return rep, nil
	}
	L := rep.layers
	pairs := float64(hooked) / 2
	L["trace.enter_exit_ns"] = float64(hooks) / pairs
	var chunks float64
	for _, n := range c.nodes {
		chunks += float64(n.chunks)
	}
	L["trace.drain_ms"] = ms(drain) / chunks
	L["trace.dropped_events"] = float64(lanesDropped)
	L["collect.ship_ns_per_event"] = perEvent(float64(ship), events)
	if ackN > 0 {
		L["collect.ack_rtt_ms"] = 1e3 * ackSum / ackN
	}
	L["collect.window_wait_frac"] = float64(wait) / float64(wait+hooks+drain+ship)
	L["collect.shipper_dropped_events"] = float64(shipDropped)
	L["collect.resends"] = float64(resends)
	folded := dv.scalar("tempest_collect_events_total")
	dec, fold := dv.dist("tempest_collect_decode_seconds"), dv.dist("tempest_collect_fold_seconds")
	L["collect.decode_ns_per_event"] = 1e9 * dec.Sum / folded
	L["collect.fold_ns_per_event"] = 1e9 * fold.Sum / folded
	L["collect.wire_bytes_per_event"] = dv.scalar("tempest_collect_bytes_total") / folded
	L["collect.shard_queue_depth_max"] = queueMax
	L["collect.ingest_errors"] = float64(ingestErrs)
	L["collect.dedup_drops"] = float64(dedup)
	L["runtime.collector_gc_cpu_frac"] = dv.Memstats.GCCPUFraction
	L["runtime.collector_mallocs_per_event"] = float64(dv.Memstats.Mallocs) / folded
	runtimeLayers(L, rt0, rt1, events)
	app, fsync := dv.dist("tempest_store_append_seconds"), dv.dist("tempest_store_sync_seconds")
	wdec := dv.dist("tempest_collect_window_decode_seconds")
	if cfg.disk {
		L["collect.window_cache_hit_ratio"] = dv.scalar("tempest_collect_window_cache_hits_total") / dv.scalar("tempest_collect_window_queries_total")
		L["collect.window_decode_ms"] = 1e3 * wdec.Avg
		L["store.append_ms"] = 1e3 * app.Avg
		L["store.fsync_ms"] = 1e3 * fsync.Avg
		L["store.syncs_per_append"] = dv.scalar("tempest_store_syncs_total") / dv.scalar("tempest_store_appends_total")
		L["store.bytes_per_event"] = dv.scalar("tempest_store_bytes_total") / folded
		L["store.range_batches_per_query"] = dv.scalar("tempest_store_range_batches_total") / float64(dash.history)
		L["store.replay_batches"] = restarted.scalar("tempest_store_replayed_batches_total")
		L["store.replay_ns_per_event"] = perEvent(float64(recovery), events)
	}
	rep.cpu = []cpuShare{
		{process: "node", total: self1 - self0, layers: []layerCPU{
			{"trace lanes (Enter/Exit), thread CPU", layerCPUs[0]}, {"trace.Drain, thread CPU", layerCPUs[1]},
			{"collect.Ship (encode+enqueue), thread CPU", layerCPUs[2]}}},
		{process: "collector", total: cpu1 - cpu0, layers: []layerCPU{
			{"collect decode", secs(dec.Sum)}, {"collect fold (parser+critpath)", secs(fold.Sum)},
			{"store append minus fsync wait", secs(app.Sum - fsync.Sum)}, {"collect window decode", secs(wdec.Sum)}}},
	}
	return rep, nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// recoverStore restarts the collector on the same store, times recovery
// until every acked event is back, re-checks the profiles, and runs
// tempest-collectd -verify-store.
func recoverStore(e *env, c *cluster, client *http.Client, events uint64) (*debugVars, time.Duration, error) {
	t0 := time.Now()
	cd, err := startCollectd(e.collectd, c.store)
	if err != nil {
		return nil, 0, fmt.Errorf("restart: %w", err)
	}
	c.cd = cd
	for {
		var st []collect.NodeStatus
		if err := getJSON(client, cd.http+"/api/nodes", &st); err == nil {
			var got uint64
			for _, s := range st {
				got += s.Events
			}
			if got == events {
				break
			}
		}
		if time.Since(t0) > 60*time.Second {
			return nil, 0, errors.New("recovery: acked events not back within 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	recover := time.Since(t0)
	line(e.out, "recover_s", recover.Seconds(), "s", "(restart to every acked event back in /api/nodes)")
	if err := verifyCollector(client, cd.http, c.nodes); err != nil {
		return nil, 0, fmt.Errorf("correctness after restart: %w", err)
	}
	var dv debugVars
	if err := getJSON(client, cd.debug+"/debug/vars", &dv); err != nil {
		return nil, 0, err
	}
	if _, err := cd.stop(); err != nil {
		return nil, 0, err
	}
	out, err := exec.Command(e.collectd, "-verify-store", "-store-dir", c.store).CombinedOutput()
	if err != nil {
		return nil, 0, fmt.Errorf("tempest-collectd -verify-store: %v\n%s", err, out)
	}
	fmt.Fprintln(e.out, "verify-store: ok")
	return &dv, recover, nil
}
