package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tempest/internal/introspect"
	"tempest/internal/sensors"
	"tempest/internal/tempd"
	"tempest/internal/thermal"
	"tempest/internal/trace"
	"tempest/internal/vclock"
)

// The generator is a BT-like program: 64 functions on six call levels
// (bt_main at level 0), callees picked with Zipf-skewed frequency, and
// MPI_* wait/communication functions as leaves so critpath attributes
// wait time. The seed fixes the call graph and every lane's script; the
// program under test only ever sees the resulting Enter/Exit stream.

const (
	numFuncs     = 64
	lanesPerNode = 4
	// scriptOps is the minimum length of one lane's script. A script is a
	// whole number of complete walks from bt_main, so every cycle of it is
	// balanced and its call tally is exact.
	scriptOps = 8192
)

// levelSizes splits the 63 non-root functions over call levels 1..5.
var levelSizes = [...]int{5, 10, 16, 18, 14}

// maxKids bounds how many calls a function at each level makes.
var maxKids = [...]int{4, 3, 3, 2, 2, 0}

var mpiNames = []string{"MPI_Wait", "MPI_Waitall", "MPI_Irecv", "MPI_Isend",
	"MPI_Allreduce", "MPI_Barrier", "MPI_Send", "MPI_Recv"}

var btStems = []string{"x_solve", "y_solve", "z_solve", "compute_rhs", "lhsinit",
	"binvcrhs", "matvec_sub", "matmul_sub", "add", "copy_faces", "exact_rhs", "adi"}

// callGraph is the seeded program shape shared by every node and lane.
type callGraph struct {
	names  []string
	levels [][]int // function indices per level; levels[0] = {0}
	leaf   []bool
}

func newCallGraph(seed int64) *callGraph {
	rng := rand.New(rand.NewSource(seed))
	g := &callGraph{names: []string{"bt_main"}, leaf: make([]bool, numFuncs)}
	for i := 0; len(g.names) < numFuncs-len(mpiNames); i++ {
		g.names = append(g.names, fmt.Sprintf("bt_%02d_%s", i, btStems[i%len(btStems)]))
	}
	g.names = append(g.names, mpiNames...)
	for i := numFuncs - len(mpiNames); i < numFuncs; i++ {
		g.leaf[i] = true
	}
	order := rng.Perm(numFuncs - 1)
	g.levels = [][]int{{0}}
	next := 0
	for _, n := range levelSizes {
		lvl := make([]int, n)
		for j := range lvl {
			lvl[j] = order[next] + 1
			next++
		}
		g.levels = append(g.levels, lvl)
	}
	return g
}

// script is one lane's op sequence: +(f+1) enters function f, -(f+1)
// exits it. calls[f] is the number of entries of f in one cycle.
type script struct {
	ops   []int32
	calls []uint64
}

func (g *callGraph) script(seed int64) script {
	rng := rand.New(rand.NewSource(seed))
	zipf := make([]*rand.Zipf, len(g.levels))
	for l := 1; l < len(g.levels); l++ {
		zipf[l] = rand.NewZipf(rng, 1.3, 1, uint64(len(g.levels[l])-1))
	}
	s := script{calls: make([]uint64, numFuncs)}
	var walk func(f, level int)
	walk = func(f, level int) {
		s.ops = append(s.ops, int32(f+1))
		s.calls[f]++
		if !g.leaf[f] && level+1 < len(g.levels) {
			k := rng.Intn(maxKids[level] + 1)
			if level == 0 && k == 0 {
				k = 1
			}
			for ; k > 0; k-- {
				walk(g.levels[level+1][zipf[level+1].Uint64()], level+1)
			}
		}
		s.ops = append(s.ops, -int32(f+1))
	}
	for len(s.ops) < scriptOps {
		walk(0, 0)
	}
	return s
}

// laneSeed derives a per-node, per-lane script seed from the run seed.
func laneSeed(seed int64, node uint32, lane int) int64 {
	return seed*1_000_003 + int64(node)*101 + int64(lane) + 1
}

// genNode replays seeded lane scripts through one tracer's lanes
// round-robin from a single goroutine, the way a node's worker threads
// would interleave.
type genNode struct {
	id     uint32
	g      *callGraph
	tr     *trace.Tracer
	lanes  [lanesPerNode]*trace.Lane
	ops    [lanesPerNode][]int32 // in tracer FuncID space
	calls  [lanesPerNode][]uint64
	pos    [lanesPerNode]int
	cycles [lanesPerNode]uint64
	hooked uint64 // hook events executed
}

func newGenNode(g *callGraph, seed int64, id uint32) (*genNode, error) {
	tr, err := trace.NewTracer(trace.Config{Clock: vclock.NewRealClock(), NodeID: id})
	if err != nil {
		return nil, err
	}
	n := &genNode{id: id, g: g, tr: tr}
	fids := make([]int32, numFuncs)
	for f, name := range g.names {
		fids[f] = int32(tr.RegisterFunc(name))
	}
	for k := range n.lanes {
		n.lanes[k] = tr.NewLane()
		s := g.script(laneSeed(seed, id, k))
		n.calls[k] = s.calls
		n.ops[k] = make([]int32, len(s.ops))
		for i, op := range s.ops {
			if op > 0 {
				n.ops[k][i] = fids[op-1] + 1
			} else {
				n.ops[k][i] = -(fids[-op-1] + 1)
			}
		}
	}
	return n, nil
}

// op executes lane k's next script op.
func (n *genNode) op(k int) error {
	op := n.ops[k][n.pos[k]]
	var err error
	if op > 0 {
		n.lanes[k].Enter(uint32(op - 1))
	} else {
		err = n.lanes[k].Exit(uint32(-op - 1))
	}
	n.hooked++
	if n.pos[k]++; n.pos[k] == len(n.ops[k]) {
		n.pos[k] = 0
		n.cycles[k]++
	}
	return err
}

// step executes count ops round-robin over the lanes; count is a
// multiple of the lane count so the rotation carries across calls.
func (n *genNode) step(count int) error {
	for j := 0; j < count; j++ {
		if err := n.op(j % lanesPerNode); err != nil {
			return err
		}
	}
	return nil
}

// finish runs every lane to the end of its current cycle, so the tally
// covers every hooked event.
func (n *genNode) finish() error {
	for k := range n.lanes {
		for n.pos[k] != 0 {
			if err := n.op(k); err != nil {
				return err
			}
		}
	}
	return nil
}

// tally returns the expected call count per function name.
func (n *genNode) tally() map[string]uint64 {
	out := make(map[string]uint64, numFuncs)
	for k := range n.lanes {
		for f, c := range n.calls[k] {
			if c > 0 {
				out[n.g.names[f]] += c * n.cycles[k]
			}
		}
	}
	return out
}

// sensorDaemon samples a simulated CPU into tr at tempd's 4 Hz. The
// model is advanced with wall time on every chunk by advance.
type sensorDaemon struct {
	d   *tempd.Daemon
	cpu *thermal.CPU
	mu  sync.Mutex
	at  time.Time
}

func startSensors(tr *trace.Tracer) (*sensorDaemon, error) {
	cpu, err := thermal.NewCPU(thermal.DefaultOpteronParams())
	if err != nil {
		return nil, err
	}
	s := &sensorDaemon{cpu: cpu, at: time.Now()}
	for c := 0; c < cpu.NumCores(); c++ {
		if err := cpu.SetCoreUtilization(c, 1); err != nil {
			return nil, err
		}
	}
	reg := sensors.NewRegistry(sensors.NewSimProvider(cpu, &s.mu, "sim"))
	if err := reg.Discover(); err != nil {
		return nil, err
	}
	d, err := tempd.New(tempd.Config{Registry: reg, Tracer: tr, RateHz: 4, Introspect: introspect.New()})
	if err != nil {
		return nil, err
	}
	if err := d.Start(); err != nil {
		return nil, err
	}
	s.d = d
	return s, nil
}

func (s *sensorDaemon) advance() {
	now := time.Now()
	s.mu.Lock()
	_ = s.cpu.Step(now.Sub(s.at))
	s.mu.Unlock()
	s.at = now
}

func (s *sensorDaemon) stop() error { return s.d.Stop() }
