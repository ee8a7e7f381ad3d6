// Command perfbench is Tempest's end-to-end benchmark. It drives the
// whole event path from outside, timing calls into each layer's public
// functions: hook (instrument, trace lanes) -> drain -> encode/ship
// (collect.Shipper) -> decode, durable commit and fold in a
// tempest-collectd child -> query (/api/*), plus the paper's offline path
// (trace file codec -> parser -> critpath).
//
// Usage (from the repository root, after building the binaries; see
// run.sh, which does both):
//
//	perfbench --workload ship-mem --seed 1 --seconds 8 --trace 0
//
// The last line of standard output is one JSON object with keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the workload untraced, then again with span
// recording, and reports the per-layer metrics, the tracing overhead and
// the share of each process's CPU the timed layers account for.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one pass of one workload.
type report struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
	// cpu is the attribution table: per process, the layers' CPU seconds
	// and the process total over the timed phase.
	cpu []cpuShare
}

type cpuShare struct {
	process string
	total   time.Duration
	layers  []layerCPU
}

type layerCPU struct {
	name string
	d    time.Duration
}

// env is what every workload needs from the command line.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	collectd string // tempest-collectd binary
	dir      string // working directory inside the checkout
	out      io.Writer
	rec      *spanRecorder // nil in untraced passes
}

var workloads = map[string]func(*env) (*report, error){
	shipMem:  func(e *env) (*report, error) { return runShip(e, shipConfigs[shipMem]) },
	shipDisk: func(e *env) (*report, error) { return runShip(e, shipConfigs[shipDisk]) },
	churn:    runChurn,
	offline:  runOffline,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "ship-mem | ship-disk | request-churn | offline-parse")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 8, "length of the timed phase")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	collectd := fs.String("collectd", ".bench_build/bin/tempest-collectd", "tempest-collectd binary")
	dir := fs.String("dir", ".bench_build/perfbench", "working directory for stores, trace files and spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	e := &env{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		collectd: *collectd, dir: runDir, out: os.Stdout}
	fmt.Fprintf(e.out, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", e.workload, e.seed, *seconds, *traced)

	res := result{Metrics: map[string]metric{}}
	base, err := fn(e)
	if base != nil {
		res.Attempted, res.Failed = base.attempted, base.failed
	}
	if err != nil {
		return printFailure(e.out, res, err)
	}
	if *traced == 0 {
		for _, m := range endToEnd {
			v, ok := base.e2e[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return printFailure(e.out, res, fmt.Errorf("metric %s missing", m.name))
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		res.Correct = true
		return printResult(e.out, res)
	}

	fmt.Fprintln(e.out, "# traced pass")
	e.rec = newSpanRecorder()
	tr, err := fn(e)
	if tr != nil {
		res.Attempted += tr.attempted
		res.Failed += tr.failed
	}
	if err != nil {
		return printFailure(e.out, res, err)
	}
	agg, dropped := e.rec.aggregate()
	writeSpanTable(e.out, agg)
	spanPath := filepath.Join(*dir, fmt.Sprintf("spans-%s-seed%d.jsonl", e.workload, e.seed))
	n, err := e.rec.writeFile(spanPath)
	if err != nil {
		return printFailure(e.out, res, fmt.Errorf("write spans: %w", err))
	}
	fmt.Fprintf(e.out, "spans: %d written to %s, %d dropped\n", n, spanPath, dropped)

	overhead := 1 - tr.e2e["events_per_s"]/base.e2e["events_per_s"]
	fmt.Fprintf(e.out, "tracing overhead: events_per_s untraced %.6g, traced %.6g, overhead %.2f%%\n",
		base.e2e["events_per_s"], tr.e2e["events_per_s"], 100*overhead)
	tr.layers["bench.tracing_overhead_frac"] = overhead
	for _, c := range tr.cpu {
		attributed := writeCPUTable(e.out, c)
		tr.layers["cpu."+c.process+"_attributed_frac"] = attributed
	}
	fmt.Fprintf(e.out, "%-36s %14s %-12s %s\n", "per-layer metric", "value", "unit", "should move")
	for _, m := range layerMetrics {
		v := tr.layers[m.name]
		note := m.moves
		if !m.runsOn(e.workload) {
			v, note = 0, "not exercised on "+e.workload
		}
		res.Metrics[m.name] = metric{v, m.unit}
		fmt.Fprintf(e.out, "%-36s %14.6g %-12s %s\n", m.name, v, m.unit, note)
	}
	res.Correct = true
	return printResult(e.out, res)
}

// writeCPUTable prints one process's CPU attribution and returns the
// attributed share.
func writeCPUTable(w io.Writer, c cpuShare) float64 {
	fmt.Fprintf(w, "cpu attribution, %s process: %.3f s CPU in the timed phase\n", c.process, c.total.Seconds())
	var sum time.Duration
	sort.Slice(c.layers, func(i, j int) bool { return c.layers[i].d > c.layers[j].d })
	for _, l := range c.layers {
		sum += l.d
		fmt.Fprintf(w, "  %-40s %8.3f s %6.1f%%\n", l.name, l.d.Seconds(), 100*share(l.d, c.total))
	}
	fmt.Fprintf(w, "  %-40s %8.3f s %6.1f%%\n", "unattributed (GC, syscalls and goroutines outside timed calls)",
		(c.total - sum).Seconds(), 100*share(c.total-sum, c.total))
	return share(sum, c.total)
}

func share(part, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return float64(part) / float64(total)
}

func printFailure(w io.Writer, res result, err error) error {
	fmt.Fprintln(w, "FAILED:", err)
	res.Correct = false
	res.Metrics = map[string]metric{}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	if res.Failed < 1 {
		res.Failed = 1
	}
	if perr := printResult(w, res); perr != nil {
		return perr
	}
	return err
}

func printResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// line prints one human-readable metric.
func line(w io.Writer, name string, v float64, unit string, note string) {
	if note != "" {
		note = "  " + note
	}
	fmt.Fprintf(w, "%-28s %14.6g %s%s\n", name, v, unit, note)
}

// pctLine prints a percentile with its sample count, or why it is absent.
func pctLine(w io.Writer, name string, xs []float64, q float64, unit string) (pct, error) {
	p, err := percentile(xs, q)
	if err != nil {
		fmt.Fprintf(w, "%-28s %14s %s  (%v)\n", name, "n/a", unit, err)
		return p, err
	}
	line(w, name, p.Value, unit, fmt.Sprintf("(n=%d)", p.N))
	return p, nil
}

// selfCPU is the benchmark process's user+system CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// threadCPU is the calling OS thread's CPU time. It is meaningful only
// on a goroutine locked to its thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// selfPeakRSSMiB is the process's peak resident set (VmHWM).
func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// retainedRSSMiB is the resident set once garbage is collected and
// returned to the OS: the memory the process keeps, not where its GC
// cycles happened to fall.
func retainedRSSMiB() float64 {
	debug.FreeOSMemory()
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN()
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return math.NaN()
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return math.NaN()
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

// rssLine prints node_rss_mb, the retained resident set, with the peak.
func rssLine(w io.Writer, rep *report) {
	line(w, "node_rss_mb", rep.e2e["node_rss_mb"], "MiB", "(resident after GC at the end of the timed phase)")
	line(w, "node_peak_rss_mb", selfPeakRSSMiB(), "MiB", "(VmHWM)")
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU reads a child's user+system CPU from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// hostTicks is the machine-wide CPU time from /proc/stat: all of it, the
// idle part, and the part the hypervisor stole from this VM's vCPUs.
type hostTicks struct{ total, idle, steal uint64 }

func readHostTicks() hostTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	first, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(first)
	var t hostTicks
	// Fields 1..8: user nice system idle iowait irq softirq steal; guest
	// time is already inside user.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		t.total += v
		switch i {
		case 4, 5:
			t.idle += v
		case 8:
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of the time this VM's vCPUs wanted to run
// that the hypervisor gave to someone else, between two readings.
func stealShare(a, b hostTicks) float64 {
	wanted := (b.total - b.idle) - (a.total - a.idle)
	if wanted == 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(wanted)
}

// rtStats is a runtime/metrics reading of the benchmark process.
type rtStats struct {
	gcCPU, totalCPU float64
	allocs          uint64
}

func readRuntime() rtStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	var r rtStats
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		r.allocs = s[2].Value.Uint64()
	}
	return r
}

// runtimeLayers fills the node runtime metrics from two readings.
func runtimeLayers(layers map[string]float64, a, b rtStats, events uint64) {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		layers["runtime.node_gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / d
	}
	layers["runtime.node_mallocs_per_event"] = perEvent(float64(b.allocs-a.allocs), events)
}

func perEvent(v float64, events uint64) float64 {
	if events == 0 {
		return 0
	}
	return v / float64(events)
}

// checkTally compares parsed per-function calls with the generator's.
func checkTally(what string, got map[string]int64, want map[string]uint64) error {
	for name, w := range want {
		if uint64(got[name]) != w {
			return fmt.Errorf("%s: %s calls %d, generator tally %d", what, name, got[name], w)
		}
	}
	for name, g := range got {
		if _, ok := want[name]; !ok && g != 0 {
			return fmt.Errorf("%s: %s has %d calls the generator never made", what, name, g)
		}
	}
	return nil
}
