package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded only by the benchmark's own code, around its calls
// into each layer, and only in a traced run. Each goroutine owns a
// spanLog, so recording takes no lock; a nil *spanLog records nothing,
// which is how untraced runs pay no tracing cost.

// maxSpans bounds each log's memory; later spans are counted as dropped.
const maxSpans = 1 << 19

type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type spanLog struct {
	r       *spanRecorder
	spans   []span
	dropped int
}

type spanRecorder struct {
	epoch  time.Time
	nextID atomic.Uint32
	mu     sync.Mutex
	logs   []*spanLog
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// log returns a new per-goroutine log; nil on a nil recorder.
func (r *spanRecorder) log() *spanLog {
	if r == nil {
		return nil
	}
	l := &spanLog{r: r}
	r.mu.Lock()
	r.logs = append(r.logs, l)
	r.mu.Unlock()
	return l
}

// begin opens a span; its id is the parent of spans opened inside it.
func (l *spanLog) begin(name string, parent uint32) span {
	if l == nil {
		return span{}
	}
	return span{ID: l.r.nextID.Add(1), Parent: parent, Name: name, Start: int64(time.Since(l.r.epoch))}
}

// end closes s and records it.
func (l *spanLog) end(s span) {
	if l == nil {
		return
	}
	s.End = int64(time.Since(l.r.epoch))
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, s)
}

// add records a span measured elsewhere (per-call hooks timed in
// aggregate) with the given total duration ending now.
func (l *spanLog) add(name string, parent uint32, d time.Duration) {
	if l == nil {
		return
	}
	end := int64(time.Since(l.r.epoch))
	l.end(span{ID: l.r.nextID.Add(1), Parent: parent, Name: name, Start: end - int64(d), End: end})
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Count int
	Total time.Duration
	Self  time.Duration // Total minus the time covered by child spans
}

// aggregate sums spans by name; self time subtracts direct children.
func (r *spanRecorder) aggregate() (map[string]*spanStat, int) {
	out := map[string]*spanStat{}
	if r == nil {
		return out, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	childTime := map[uint32]time.Duration{}
	dropped := 0
	for _, l := range r.logs {
		dropped += l.dropped
		for _, s := range l.spans {
			if s.Parent != 0 {
				childTime[s.Parent] += time.Duration(s.End - s.Start)
			}
		}
	}
	for _, l := range r.logs {
		for _, s := range l.spans {
			st := out[s.Name]
			if st == nil {
				st = &spanStat{}
				out[s.Name] = st
			}
			d := time.Duration(s.End - s.Start)
			st.Count++
			st.Total += d
			st.Self += d - childTime[s.ID]
		}
	}
	return out, dropped
}

// writeFile writes every span as one JSON object per line, ordered by
// start time.
func (r *spanRecorder) writeFile(path string) (int, error) {
	r.mu.Lock()
	var all []span
	for _, l := range r.logs {
		all = append(all, l.spans...)
	}
	r.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(all), f.Close()
}

// writeSpanTable prints the per-name aggregate, largest total first.
func writeSpanTable(w io.Writer, agg map[string]*spanStat) {
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return agg[names[i]].Total > agg[names[j]].Total })
	fmt.Fprintf(w, "%-28s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		st := agg[n]
		fmt.Fprintf(w, "%-28s %10d %12.3f %12.3f\n", n, st.Count, ms(st.Total), ms(st.Self))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
