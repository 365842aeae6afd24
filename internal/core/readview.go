package core

import (
	"sync/atomic"

	"github.com/prismdb/prismdb/internal/btree"
	"github.com/prismdb/prismdb/internal/sst"
	"github.com/prismdb/prismdb/internal/tracker"
)

// This file holds the lock-free GET fast path's substrate: the published
// read view, the partition's atomically published virtual-clock frontier,
// the sharded read counters, the bounded popularity touch ring, and the
// slot-read buffer rack. partition.get (partition.go) is the consumer.
//
// The publication rule: every partition mutation that changes what a reader
// could observe structurally — a B-tree insert/delete or a manifest change —
// republishes the view under p.mu before the operation returns, pairing the
// copy-on-write B-tree root with a refcounted manifest snapshot. In-place
// slab updates do NOT republish: the view's locations still resolve, and a
// reader picks up the new bytes directly from the (internally synchronized)
// slab file. Within a commit that moves keys between tiers, the manifest
// always installs BEFORE the B-tree entries drop, so any published pairing
// satisfies "tree version ≤ manifest version": a key missing from the
// view's tree is already readable from its snapshot's tables, and a key
// still in the tree shadows whatever the snapshot holds.
//
// Readers never take p.mu. Their safety against slab reclamation is
// validation, not pinning: a slot read through the concurrent slab path is
// trusted only if the decoded record's key equals the requested key. A slot
// freed (zeroed header), recycled to another key, or moved mid-read fails
// validation, which proves the view is stale — the reader re-acquires the
// current view and retries, falling back to the partition lock after a few
// attempts (churn that hot is already serializing on the writer side). A
// recycled slot that holds the SAME key again is, by definition, that key's
// newer value — returning it is linearizable. Slot writes and reads go
// through the slab file's lock, so a reader sees a whole old record or a
// whole new one, never a torn mix.

// readView is one partition's published read view: an immutable
// copy-on-write B-tree snapshot paired with a refcounted manifest snapshot,
// swapped atomically by writers. Acquire/release mirrors sst.Manifest's
// snapshot protocol: the publisher holds one reference until the view is
// superseded, each reader holds one for the duration of a single GET.
type readView struct {
	tree *btree.Tree
	snap *sst.Snapshot

	refs  atomic.Int64
	freed atomic.Bool
}

// acquireView returns the current view with a reference taken. Lock-free
// and allocation-free; pair with view.release.
func (p *partition) acquireView() *readView {
	for {
		v := p.view.Load()
		v.refs.Add(1)
		// Validate after incrementing: while the view is still current the
		// publisher's own reference was included in the count we incremented
		// from, so the view is alive and ours. Otherwise it may already be
		// draining — undo and retry on the successor.
		if p.view.Load() == v {
			return v
		}
		v.release()
	}
}

// release drops one reference; the last one releases the manifest snapshot.
// Safe to call from any goroutine without locks (Snapshot.Release is
// internally synchronized), so readers can retire views off-lock.
func (v *readView) release() {
	if v.refs.Add(-1) > 0 {
		return
	}
	// A concurrent acquireView may briefly resurrect the count and release
	// it again; only the first drop-to-zero frees the snapshot.
	if !v.freed.CompareAndSwap(false, true) {
		return
	}
	v.snap.Release()
}

// publishView swaps in a fresh view over the partition's current B-tree
// root and manifest snapshot and retires the old one. Called under p.mu by
// every mutation that changes the tree or the manifest (see the publication
// rule above).
func (p *partition) publishView() {
	nv := &readView{tree: p.index.Snapshot(), snap: p.man.Acquire()}
	nv.refs.Store(1) // the publisher's reference
	p.stats.ViewRepublishes++
	old := p.view.Swap(nv)
	if old != nil {
		old.release()
	}
}

// casMaxVclock publishes t as the partition's virtual-time frontier if it
// is ahead of it. vclock is the partition's monotone published clock: the
// maximum of the worker clock (p.clk, published by lock holders on their
// way out) and every completed off-lock read's private clock. Lock-free
// GETs seed from it and fold their end time back into it, which is what
// keeps serial virtual-time sequencing identical to the locked path: each
// op begins where the previous one ended.
func (p *partition) casMaxVclock(t int64) {
	for {
		cur := p.vclock.Load()
		if t <= cur || p.vclock.CompareAndSwap(cur, t) {
			return
		}
	}
}

// frontier returns the partition's published virtual-time frontier: the
// worker clock joined with every completed lock-free read's fold-back.
// It takes the lock briefly for a consistent worker-clock read; the vclock
// join happens after release (vclock is monotone, so the result is a valid
// frontier at some point during the call).
func (p *partition) frontier() int64 {
	p.mu.Lock()
	t := p.clk.Now()
	p.mu.Unlock()
	if v := p.vclock.Load(); v > t {
		t = v
	}
	return t
}

// syncClockLocked pulls the worker clock up to the published frontier.
// Called on lock entry by every path that charges time to p.clk, so a write
// issued after an off-lock read starts no earlier than that read ended.
func (p *partition) syncClockLocked() {
	p.clk.AdvanceTo(p.vclock.Load())
}

// sinkShards is the number of read-counter shards per partition. Off-lock
// readers pick a shard by key index, spreading the atomic traffic of a hot
// partition across cache lines; the owner drains all shards under p.mu.
const sinkShards = 4

// readShard is one shard of the off-lock read counters. The trailing pad
// keeps shards on separate cache lines so contended GETs don't false-share.
type readShard struct {
	gets    atomic.Int64
	dram    atomic.Int64
	nvm     atomic.Int64
	flash   atomic.Int64
	miss    atomic.Int64
	bloomFP atomic.Int64
	_       [128 - 6*8]byte
}

// drainReadsLocked folds the off-lock read state into the owner's guarded
// structures: counters into p.stats, tier counts into the read-trigger
// accumulators, queued popularity touches into the tracker and buckets, and
// finally one read-trigger step per drained read — so the §5.3 state
// machine advances exactly as if each GET had run it inline, just in
// batches. Caller holds p.mu.
func (p *partition) drainReadsLocked() {
	// Every lock-free GET bumps sinceDrain after recording its counters and
	// touch (maybeDrainReads), so zero means there is nothing to fold; a
	// GET caught between the two is folded by the next drain. The write
	// path drains on every op, and this one load keeps that cheap.
	if p.sinceDrain.Load() == 0 {
		return
	}
	// Any drain restarts the readers' cadence: without this, a writer-heavy
	// phase (where writers win every drain) would leave sinceDrain
	// saturated and every subsequent GET would burn a TryLock CAS on the
	// contended mutex line.
	p.sinceDrain.Store(0)
	var gets, dram, nvm, flash, miss, fp int64
	for i := range p.sink {
		s := &p.sink[i]
		gets += s.gets.Swap(0)
		dram += s.dram.Swap(0)
		nvm += s.nvm.Swap(0)
		flash += s.flash.Swap(0)
		miss += s.miss.Swap(0)
		fp += s.bloomFP.Swap(0)
	}
	p.touches.drain(func(key []byte, idx uint64, loc tracker.Location) {
		p.touch(key, idx, loc)
	})
	if gets == 0 {
		return
	}
	p.stats.Gets += gets
	p.stats.GetDRAM += dram
	p.stats.GetNVM += nvm
	p.stats.GetFlash += flash
	p.stats.GetMiss += miss
	p.stats.BloomFalsePositives += fp
	p.rt.nvmReads += dram + nvm
	p.rt.flashReads += flash
	for i := int64(0); i < gets; i++ {
		p.rt.onOp(p, true)
	}
}

// maybeDrainReads opportunistically drains the read-side state from a
// lock-free GET: every drainEvery reads (or when the touch ring is filling
// up) it TRIES the partition lock and drains if nobody holds it. TryLock
// never blocks, so a reader's worst case is skipping the drain — bounding
// counter and popularity staleness at roughly drainEvery reads per reader
// plus one ring, without ever making a GET wait. Writers drain on every
// locked operation, so any write traffic at all keeps staleness near zero.
func (p *partition) maybeDrainReads() {
	if p.sinceDrain.Add(1) < drainEvery && !p.touches.crowded() {
		return
	}
	if !p.mu.TryLock() {
		return
	}
	p.syncClockLocked()
	p.drainReadsLocked()
	p.casMaxVclock(p.clk.Now())
	p.mu.Unlock()
}

// drainEvery is the reader-side drain cadence in operations. Small enough
// that read-trigger decisions lag by at most a few dozen ops on read-only
// workloads, large enough that the uncontended TryLock cost is noise.
const drainEvery = 16

// touchKeyMax is the largest key the touch ring stores inline. Longer keys
// skip popularity tracking on the lock-free path (the next LOCKED touch of
// the key records it as usual); keeping the entry fixed-size is what keeps
// the GET path allocation-free.
const touchKeyMax = 48

// touchRingSize bounds the ring (power of two). A full ring drops new
// touches rather than blocking a read: popularity is a heuristic, and the
// drain cadence keeps the ring far from full in practice.
const touchRingSize = 512

// touchEntry is one queued popularity touch. seq is the Vyukov-queue slot
// sequencer: slot i accepts producer position pos when seq == pos, publishes
// at seq == pos+1, and is handed back to the next lap by the consumer at
// seq == pos + ring size.
type touchEntry struct {
	seq  atomic.Uint64
	idx  uint64
	loc  tracker.Location
	klen uint8
	key  [touchKeyMax]byte
}

// touchRing is a bounded MPSC ring buffer: lock-free GETs push popularity
// touches from any goroutine; whoever holds p.mu drains them into
// tracker.Touch / buckets.OnHot. Based on the classic bounded MPMC queue
// (Vyukov), specialised to a mutex-serialized consumer.
type touchRing struct {
	ents []touchEntry
	mask uint64
	tail atomic.Uint64 // next producer position
	head atomic.Uint64 // next consumer position (written only under p.mu)
}

func newTouchRing() *touchRing {
	r := &touchRing{ents: make([]touchEntry, touchRingSize), mask: touchRingSize - 1}
	for i := range r.ents {
		r.ents[i].seq.Store(uint64(i))
	}
	return r
}

// push enqueues a touch, returning false (dropping it) when the ring is
// full or the key is too long to store inline. Never blocks, never
// allocates.
func (r *touchRing) push(key []byte, idx uint64, loc tracker.Location) bool {
	if len(key) > touchKeyMax {
		return false
	}
	pos := r.tail.Load()
	for {
		e := &r.ents[pos&r.mask]
		seq := e.seq.Load()
		switch {
		case seq == pos:
			if r.tail.CompareAndSwap(pos, pos+1) {
				e.idx = idx
				e.loc = loc
				e.klen = uint8(len(key))
				copy(e.key[:], key)
				e.seq.Store(pos + 1)
				return true
			}
			pos = r.tail.Load()
		case seq < pos:
			return false // a full lap behind: ring is full
		default:
			pos = r.tail.Load()
		}
	}
}

// drain consumes every published entry. Caller holds p.mu (the consumer
// side is single-threaded by the lock; the atomics only synchronize with
// producers).
func (r *touchRing) drain(fn func(key []byte, idx uint64, loc tracker.Location)) {
	head := r.head.Load()
	for {
		e := &r.ents[head&r.mask]
		if e.seq.Load() != head+1 {
			break
		}
		fn(e.key[:e.klen], e.idx, e.loc)
		e.seq.Store(head + uint64(len(r.ents)))
		head++
	}
	r.head.Store(head)
}

// crowded reports whether the ring is at least half full — the reader-side
// signal to attempt an early drain.
func (r *touchRing) crowded() bool {
	return r.tail.Load()-r.head.Load() >= uint64(len(r.ents))/2
}

// readBuf is a slot-read buffer plus its rack holder. The holder travels
// with the buffer through take/put, so recycling it requires no allocation.
type readBuf struct {
	b []byte
}

// bufRack is a small lock-free rack of slot-read buffers for off-lock GETs
// (the slab manager's own scratch is partition-lock property). Steady state
// serves up to rackSlots concurrent readers allocation-free; beyond that,
// take falls back to a fresh buffer the put side may then drop for the GC.
type bufRack struct {
	slots [rackSlots]atomic.Pointer[readBuf]
}

const rackSlots = 8

func (r *bufRack) take() *readBuf {
	for i := range r.slots {
		if h := r.slots[i].Swap(nil); h != nil {
			return h
		}
	}
	return &readBuf{}
}

func (r *bufRack) put(h *readBuf) {
	for i := range r.slots {
		if r.slots[i].CompareAndSwap(nil, h) {
			return
		}
	}
	// Rack full: let the GC have it.
}
