package trace

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tempest/internal/vclock"
)

// Config configures a Tracer.
type Config struct {
	// Clock timestamps events; required.
	Clock vclock.Clock
	// NodeID and Rank identify this trace's origin in the cluster.
	NodeID uint32
	Rank   uint32
	// LaneBufferCap bounds each lane's event buffer. When full, further
	// events on that lane are dropped and counted — the paper's §3.3
	// warning about functions with very short life spans maps to buffer
	// pressure here. 0 defaults to 1<<16.
	LaneBufferCap int
}

// Tracer records events for one process (one MPI rank). Lanes — one per
// goroutine — record without shared locks; the tracer aggregates them at
// snapshot time. Create lanes with NewLane; samples and markers without a
// lane go through the tracer's built-in lane 0.
type Tracer struct {
	cfg     Config
	symtab  *SymTab
	origin  time.Duration // clock reading at construction
	mu      sync.Mutex
	lanes   []*Lane
	lane0   *Lane
	dropped atomic.Uint64
	events  atomic.Uint64
	// drainsStarted numbers Drain calls as they begin; drainsDone is the
	// highest number whose lanes have been emptied (see DrainedSince).
	drainsStarted atomic.Uint64
	drainsDone    atomic.Uint64
}

// Lane is a single execution lane's event stream plus its shadow call
// stack. Enter/Exit must be called from a single goroutine at a time; the
// buffer itself is lock-protected so Snapshot can run concurrently.
type Lane struct {
	tracer *Tracer
	id     uint32
	mu     sync.Mutex
	buf    []Event // guarded by mu
	cap    int
	hw     int // guarded by mu; high-water mark of len(buf)
	stack  []uint32
	drops  uint64 // guarded by mu; pending drop count to fold into the next recorded event
}

// ErrStackMismatch is returned by Exit when the exiting function does not
// match the top of the shadow stack (unbalanced instrumentation).
var ErrStackMismatch = errors.New("trace: exit does not match entered function")

// ErrStackEmpty is returned by Exit with no open function.
var ErrStackEmpty = errors.New("trace: exit with empty call stack")

// NewTracer builds a tracer. It returns an error if the clock is missing
// or the buffer capacity is negative.
func NewTracer(cfg Config) (*Tracer, error) {
	if cfg.Clock == nil {
		return nil, errors.New("trace: Config.Clock is required")
	}
	if cfg.LaneBufferCap < 0 {
		return nil, fmt.Errorf("trace: negative LaneBufferCap %d", cfg.LaneBufferCap)
	}
	if cfg.LaneBufferCap == 0 {
		cfg.LaneBufferCap = 1 << 16
	}
	t := &Tracer{cfg: cfg, symtab: NewSymTab(), origin: cfg.Clock.Now()}
	t.lane0 = t.NewLane() // lane 0: tracer-level samples and markers
	return t, nil
}

// RegisterFunc interns a function name, returning its id for Enter/Exit.
func (t *Tracer) RegisterFunc(name string) uint32 { return t.symtab.Register(name) }

// SymTab exposes the tracer's symbol table.
func (t *Tracer) SymTab() *SymTab { return t.symtab }

// NodeID returns the configured node id.
func (t *Tracer) NodeID() uint32 { return t.cfg.NodeID }

// Rank returns the configured rank.
func (t *Tracer) Rank() uint32 { return t.cfg.Rank }

// NewLane allocates an execution lane. The tracer never frees a lane:
// a profiled program creates one per worker goroutine, and the
// instrument runtime hands each of its lanes to one goroutine after
// another, reusing a lane only once a Drain has emptied it.
func (t *Tracer) NewLane() *Lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &Lane{tracer: t, id: uint32(len(t.lanes)), cap: t.cfg.LaneBufferCap}
	t.lanes = append(t.lanes, l)
	return l
}

// now returns the trace-relative timestamp.
func (t *Tracer) now() time.Duration { return t.cfg.Clock.Now() - t.origin }

// Now exposes the trace-relative clock: instrumentation runtimes that
// keep their own cheap accounting (coarse sampling buckets) timestamp
// against the same origin the tracer's events use.
func (t *Tracer) Now() time.Duration { return t.now() }

// record appends an event to the lane buffer, dropping (with accounting)
// when full.
func (l *Lane) record(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) >= l.cap {
		l.drops++
		l.tracer.dropped.Add(1)
		return
	}
	if l.drops > 0 {
		// Fold the pending drop count in as a synthetic event if there is
		// room for both; otherwise keep accumulating.
		if len(l.buf)+1 >= l.cap {
			l.drops++
			l.tracer.dropped.Add(1)
			return
		}
		l.buf = append(l.buf, Event{
			TS:   e.TS,
			Lane: l.id,
			Kind: KindDrop,
			Aux:  l.drops,
		})
		l.drops = 0
	}
	l.buf = append(l.buf, e)
	if len(l.buf) > l.hw {
		l.hw = len(l.buf)
	}
	l.tracer.events.Add(1)
}

// LaneHighWater reports the deepest any lane's buffer has ever been —
// how close the run came to the LaneBufferCap drop threshold.
func (t *Tracer) LaneHighWater() int {
	t.mu.Lock()
	lanes := append([]*Lane(nil), t.lanes...)
	t.mu.Unlock()
	hw := 0
	for _, l := range lanes {
		l.mu.Lock()
		if l.hw > hw {
			hw = l.hw
		}
		l.mu.Unlock()
	}
	return hw
}

// Enter records entry into function fid and pushes the shadow stack.
func (l *Lane) Enter(fid uint32) {
	l.stack = append(l.stack, fid)
	l.record(Event{TS: l.tracer.now(), Lane: l.id, Kind: KindEnter, FuncID: fid})
}

// Exit records exit from function fid, popping the shadow stack. It
// returns ErrStackEmpty or ErrStackMismatch on unbalanced use; the event
// is still recorded so the parser can flag the anomaly.
func (l *Lane) Exit(fid uint32) error {
	l.record(Event{TS: l.tracer.now(), Lane: l.id, Kind: KindExit, FuncID: fid})
	if len(l.stack) == 0 {
		return ErrStackEmpty
	}
	top := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	if top != fid {
		return fmt.Errorf("%w: entered id %d, exiting id %d", ErrStackMismatch, top, fid)
	}
	return nil
}

// EnterNow is Enter returning the timestamp it recorded, so a caller
// timing the call against the tracer clock needs no clock read of its
// own.
func (l *Lane) EnterNow(fid uint32) time.Duration {
	ts := l.tracer.now()
	l.stack = append(l.stack, fid)
	l.record(Event{TS: ts, Lane: l.id, Kind: KindEnter, FuncID: fid})
	return ts
}

// ExitNow is Exit returning the timestamp it recorded.
func (l *Lane) ExitNow(fid uint32) (time.Duration, error) {
	ts := l.tracer.now()
	l.record(Event{TS: ts, Lane: l.id, Kind: KindExit, FuncID: fid})
	if len(l.stack) == 0 {
		return ts, ErrStackEmpty
	}
	top := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	if top != fid {
		return ts, fmt.Errorf("%w: entered id %d, exiting id %d", ErrStackMismatch, top, fid)
	}
	return ts, nil
}

// Depth reports the current shadow-stack depth.
func (l *Lane) Depth() int { return len(l.stack) }

// Instrument wraps fn with Enter/Exit — the Go equivalent of compiling
// one function with -finstrument-functions.
func (l *Lane) Instrument(name string, fn func()) error {
	fid := l.tracer.RegisterFunc(name)
	l.Enter(fid)
	defer func() {
		// Record the exit even when fn panics, then re-panic so the
		// caller sees the original failure.
		if r := recover(); r != nil {
			_ = l.Exit(fid)
			panic(r)
		}
	}()
	fn()
	return l.Exit(fid)
}

// Marker records an annotation event on the lane.
func (l *Lane) Marker(name string) {
	fid := l.tracer.RegisterFunc(name)
	l.record(Event{TS: l.tracer.now(), Lane: l.id, Kind: KindMarker, FuncID: fid})
}

// Sample records a temperature reading (°C) for sensor sid on lane 0; the
// tempd daemon is its only expected caller.
func (t *Tracer) Sample(sid uint32, tempC float64) {
	t.lane0.record(Event{TS: t.now(), Lane: 0, Kind: KindSample, SensorID: sid, ValueC: tempC})
}

// Marker records an annotation on lane 0.
func (t *Tracer) Marker(name string) {
	fid := t.RegisterFunc(name)
	t.lane0.record(Event{TS: t.now(), Lane: 0, Kind: KindMarker, FuncID: fid})
}

// EventCount reports successfully recorded events.
func (t *Tracer) EventCount() uint64 { return t.events.Load() }

// DroppedCount reports events lost to buffer pressure.
func (t *Tracer) DroppedCount() uint64 { return t.dropped.Load() }

// Snapshot merges all lanes into a single timestamp-ordered event slice
// plus a consistent copy of the symbol table. Lanes continue recording;
// the snapshot is a stable copy. Events with equal timestamps keep
// lane-id order, making snapshots deterministic under a virtual clock.
func (t *Tracer) Snapshot() ([]Event, *SymTab) {
	t.mu.Lock()
	lanes := append([]*Lane(nil), t.lanes...)
	t.mu.Unlock()
	var all []Event
	for _, l := range lanes {
		l.mu.Lock()
		all = append(all, l.buf...)
		l.mu.Unlock()
	}
	sortEvents(all)
	return all, t.symtab.clone()
}

// Drain removes and returns all currently buffered events, merged and
// timestamp-ordered like Snapshot, together with a symbol-table copy.
// Unlike Snapshot it empties the lane buffers, so an incremental Writer
// can flush the trace in segments while recording continues — buffer
// pressure (and KindDrop events) resets with every drain.
func (t *Tracer) Drain() ([]Event, *SymTab) {
	n := t.drainsStarted.Add(1)
	t.mu.Lock()
	lanes := append([]*Lane(nil), t.lanes...)
	t.mu.Unlock()
	var all []Event
	for _, l := range lanes {
		l.mu.Lock()
		all = append(all, l.buf...)
		l.buf = nil
		l.mu.Unlock()
	}
	// Raise drainsDone to n; an overlapping later Drain may already have.
	for d := t.drainsDone.Load(); d < n; d = t.drainsDone.Load() {
		if t.drainsDone.CompareAndSwap(d, n) {
			break
		}
	}
	sortEvents(all)
	return all, t.symtab.clone()
}

// DrainEpoch stamps a point in the tracer's drain sequence: the number
// of Drain calls begun so far.
func (t *Tracer) DrainEpoch() uint64 { return t.drainsStarted.Load() }

// DrainedSince reports whether a Drain that began after DrainEpoch
// returned epoch has finished, so every event recorded before that
// stamp has left the lane buffers.
func (t *Tracer) DrainedSince(epoch uint64) bool { return t.drainsDone.Load() > epoch }

// Trace bundles everything the parser needs from one rank's run.
type Trace struct {
	NodeID uint32
	Rank   uint32
	Events []Event
	Sym    *SymTab
	// Truncated reports that the trace was recovered from a torn or
	// corrupt segmented stream: Events holds the salvaged intact prefix
	// (see ReadTrace), not necessarily the full run.
	Truncated bool
}

// Finish produces the final Trace for this rank.
func (t *Tracer) Finish() *Trace {
	ev, sym := t.Snapshot()
	return &Trace{NodeID: t.cfg.NodeID, Rank: t.cfg.Rank, Events: ev, Sym: sym}
}
