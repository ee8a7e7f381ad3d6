package instrument

import (
	"sync"
	"sync/atomic"

	"tempest/internal/trace"
)

// Lane lifecycle. A tracer lane is an execution slot, not a goroutine:
// the goroutine that took a slot keeps it across top-level calls (its
// depth-0 entries), and when its shadow stack returns to depth 0 the
// slot joins a FIFO free list. Another goroutine may take a free slot
// only once a Drain that began after the release has finished, so a
// lane never buffers more than one goroutine's events between two
// drains — reusing a slot earlier would funnel every short-lived
// goroutine onto a few lanes and overflow them. Lanes are then bounded
// by the peak number of concurrent instrumented goroutines plus the
// goroutines that first entered since the last drain, instead of
// growing with every goroutine ever started.

// laneSlot is one reusable lane and the goroutine bound to it.
type laneSlot struct {
	lane *trace.Lane
	// held is the id of the goroutine running on the lane at depth > 0,
	// or 0 while the slot is released. Only that goroutine clears it,
	// so a goroutine that reads its own id here owns the lane.
	held atomic.Uint64
	mu   sync.Mutex
	// owner is the goroutine the slot is bound to, held or not.
	owner uint64 // guarded by mu
	free  bool   // guarded by mu; released at depth 0
	// released is the tracer's DrainEpoch when the slot was freed.
	released uint64 // guarded by mu
	// queued is set while the slot sits in binding.free.
	queued bool // guarded by mu
}

// freeSlot is a free-list entry: the slot and the tracer's DrainEpoch
// when it was queued. Entries are stamped under binding.mu, so epochs
// never decrease along the list. A slot whose owner took it back and
// freed it again since carries a newer release epoch than its entry.
type freeSlot struct {
	s     *laneSlot
	epoch uint64
}

// acquire returns the calling goroutine's lane slot, taking it back
// from the free list at depth 0, or binding the goroutine to a drained
// free slot or a new lane.
func (b *binding) acquire(gid uint64) *laneSlot {
	b.ownersMu.Lock()
	s := b.owners[gid]
	b.ownersMu.Unlock()
	if s != nil {
		if s.held.Load() == gid {
			return s // nested call
		}
		s.mu.Lock()
		mine := s.owner == gid
		if mine {
			s.free = false
			s.held.Store(gid)
		}
		s.mu.Unlock()
		if mine {
			return s
		}
	}
	return b.take(gid)
}

// release frees s after its goroutine's top-level call returned.
func (b *binding) release(s *laneSlot) {
	s.mu.Lock()
	s.free = true
	s.released = b.tracer.DrainEpoch()
	s.held.Store(0)
	enqueue := !s.queued
	s.queued = true
	s.mu.Unlock()
	if enqueue {
		b.mu.Lock()
		b.free = append(b.free, freeSlot{s: s, epoch: b.tracer.DrainEpoch()})
		b.mu.Unlock()
	}
}

// take binds gid to the oldest drained free slot, or to a new lane.
func (b *binding) take(gid uint64) *laneSlot {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.free) > 0 {
		f := b.free[0]
		s := f.s
		s.mu.Lock()
		switch {
		case !s.free:
			// Its owner took it back; the owner queues it again on release.
			s.queued = false
		case s.released > f.epoch:
			// Freed again since it was queued: requeue it behind the rest.
			b.free = append(b.free, freeSlot{s: s, epoch: b.tracer.DrainEpoch()})
		case !b.tracer.DrainedSince(f.epoch):
			// No later entry has drained either.
			s.mu.Unlock()
			return b.newSlotLocked(gid)
		default:
			b.free = b.free[1:]
			s.queued, s.free = false, false
			prev := s.owner
			s.owner = gid
			s.held.Store(gid)
			s.mu.Unlock()
			b.ownersMu.Lock()
			delete(b.owners, prev)
			b.owners[gid] = s
			b.ownersMu.Unlock()
			return s
		}
		s.mu.Unlock()
		b.free = b.free[1:]
	}
	return b.newSlotLocked(gid)
}

// newSlotLocked binds gid to a fresh lane. Callers hold b.mu.
func (b *binding) newSlotLocked(gid uint64) *laneSlot {
	s := &laneSlot{lane: b.tracer.NewLane(), owner: gid}
	s.held.Store(gid)
	b.ownersMu.Lock()
	b.owners[gid] = s
	b.ownersMu.Unlock()
	return s
}
