package core

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/prismdb/prismdb/internal/storage"
)

// This file holds the write path's owner goroutine. Every client SET/DEL
// enters through partition.write, which is a hybrid:
//
//   - Uncontended, a SET/DEL is a batch of one: the caller finds the
//     intent ring empty, TryLocks the partition's write lock and then its
//     lock, and applies directly (partition.applyLocked) — no handoff, no
//     parking. The owner holds the write lock across a whole batch, so a
//     direct op never lands inside a batch that admitWrite has parked.
//   - Contended (TryLock lost, or intents already queued), callers frame
//     their mutation as a writeIntent, enqueue it into a bounded
//     lock-free MPSC ring, and block on a per-intent done signal. The
//     partition's owner goroutine drains a batch, applies every mutation
//     in ONE locked critical section, appends ONE WAL record group for
//     the whole batch (so the engine batch and the group-commit fsync
//     are the same unit), republishes the read view once per batch, and
//     only then releases the waiters — preserving read-your-writes on
//     the enqueuing goroutine and the slab-write-before-WAL-append
//     durability ordering.
//
// Under contention a burst pays the partition's fixed costs once per batch
// rather than once per op (bench/contended_test.go measures the ceiling).
//
// The ring is the same Vyukov MPSC shape as readview.go's popularity touch
// ring, but lossless: where a full touch ring drops the entry (popularity
// is a heuristic), a full intent ring parks the producer on a condition
// variable until the owner frees slots. Virtual-time latency composition
// is the same on both paths — the owner applies intents in arrival order
// on the partition clock, so each op is billed exactly the clock interval
// its own mutation consumed — and a serial caller always finds the ring
// idle and the lock free, so it only ever takes the direct path.

const (
	// writeRingSize bounds the per-partition intent ring (power of two).
	writeRingSize = 1024
	// maxWriteBatch caps how many intents the owner applies per critical
	// section, bounding the lock hold and the WAL group a single fsync
	// must cover.
	maxWriteBatch = 128
)

// Write intent opcodes: the WAL's record opcodes, so replay hands its
// records straight to applyLocked.
const (
	intentPut = storage.OpPut
	intentDel = storage.OpDel
)

// writeIntent is one framed mutation travelling from an enqueuing client
// goroutine to the partition owner. The producer owns key/value until the
// done signal arrives; the owner never touches the intent after sending it,
// so the producer can recycle it through intentPool.
type writeIntent struct {
	op    byte
	key   []byte
	value []byte

	// Tracing, set only for sampled ops (obs tracer): the owner fills
	// tr's queue-wait / apply / WAL-append stages (tr.enqAt anchors the
	// queue wait). nil on the untraced hot path.
	tr *OpTrace

	// Results, written by the owner before the done send. rec is the
	// intent's record index within its batch's WAL group (-1 when the op
	// logged nothing: an error path, or an in-memory DB).
	lat time.Duration
	lsn uint64
	rec int
	err error

	done chan struct{} // buffered(1): the owner's send never blocks
}

var intentPool = sync.Pool{New: func() any {
	return &writeIntent{done: make(chan struct{}, 1)}
}}

func getIntent() *writeIntent { return intentPool.Get().(*writeIntent) }

func putIntent(it *writeIntent) {
	it.key, it.value = nil, nil // drop caller-buffer refs before pooling
	it.tr = nil
	it.lat, it.lsn, it.rec, it.err = 0, 0, 0, nil
	intentPool.Put(it)
}

// wqSlot is one ring slot. seq is the Vyukov sequencer: slot i accepts
// producer position pos when seq == pos, publishes at seq == pos+1, and is
// handed to the next lap by the consumer at seq == pos + ring size.
type wqSlot struct {
	seq atomic.Uint64
	it  *writeIntent
}

// writeQueue is the bounded lossless MPSC intent ring plus the producer
// parking and close machinery.
type writeQueue struct {
	ents []wqSlot
	mask uint64
	tail atomic.Uint64 // next producer position
	head atomic.Uint64 // next consumer position (owner only)

	// closed + inflight form the close handshake. Producers increment
	// inflight before checking closed and decrement on the way out, so
	// once the owner observes closed set AND inflight == 0, every intent
	// that will ever be pushed is in the ring — the final drain can fail
	// them all with ErrClosed and no producer is left parked or waiting on
	// a done signal that never comes.
	inflight atomic.Int64
	closed   atomic.Bool

	parks    atomic.Int64 // producers that found the ring full (cumulative)
	parkMu   sync.Mutex
	parkCond *sync.Cond

	// gate, when set (before the owner starts; never mutated after), vetoes
	// new enqueues with a typed error — the DB's read-only degradation
	// check. A parked producer re-evaluates it after every wakeProducers
	// broadcast, so the degrade transition unparks writers the same way
	// Close does instead of leaving them asleep on a ring nobody will
	// drain into a healthy apply again.
	gate func() error

	work chan struct{} // cap 1: owner wakeup
	quit chan struct{}
	done chan struct{} // closed when the owner goroutine exits
}

func newWriteQueue() *writeQueue {
	q := &writeQueue{
		ents: make([]wqSlot, writeRingSize),
		mask: writeRingSize - 1,
		work: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := range q.ents {
		q.ents[i].seq.Store(uint64(i))
	}
	q.parkCond = sync.NewCond(&q.parkMu)
	return q
}

// push enqueues an intent, returning false when the ring is full. Never
// blocks, never allocates (compare touchRing.push, which drops on full).
func (q *writeQueue) push(it *writeIntent) bool {
	pos := q.tail.Load()
	for {
		e := &q.ents[pos&q.mask]
		seq := e.seq.Load()
		switch {
		case seq == pos:
			if q.tail.CompareAndSwap(pos, pos+1) {
				e.it = it
				e.seq.Store(pos + 1)
				return true
			}
			pos = q.tail.Load()
		case seq < pos:
			return false // a full lap behind: ring is full
		default:
			pos = q.tail.Load()
		}
	}
}

// full reports whether the next producer slot is still owned by a previous
// lap — the park predicate, re-checked under parkMu to pair with the
// owner's broadcast-after-drain.
func (q *writeQueue) full() bool {
	pos := q.tail.Load()
	return q.ents[pos&q.mask].seq.Load() < pos
}

// depth approximates the number of queued intents (stats gauge).
func (q *writeQueue) depth() int64 {
	return int64(q.tail.Load() - q.head.Load())
}

// idle reports an empty ring — the gate for the direct (uncontended) write
// fast path. Racy by design: a push landing right after the check just means
// that op takes the lock the slow way or the fast writer and the owner split
// the work, both fine — no ordering guarantee exists between concurrent
// client writes anyway.
func (q *writeQueue) idle() bool {
	return q.tail.Load() == q.head.Load()
}

// enqueue pushes it, parking (not spinning, not dropping) while the ring is
// full. Returns ErrClosed — without having pushed — once the queue closes,
// or the gate's error once the DB degrades; a parked producer is woken by
// the close/degrade broadcast, never leaked.
func (q *writeQueue) enqueue(it *writeIntent) error {
	q.inflight.Add(1)
	defer q.inflight.Add(-1)
	for {
		if q.closed.Load() {
			return ErrClosed
		}
		if err := q.gateErr(); err != nil {
			return err
		}
		if q.push(it) {
			q.wake()
			return nil
		}
		q.parks.Add(1)
		q.parkMu.Lock()
		for !q.closed.Load() && q.gateErr() == nil && q.full() {
			q.parkCond.Wait()
		}
		q.parkMu.Unlock()
	}
}

// gateErr evaluates the enqueue gate (nil gate = always open).
func (q *writeQueue) gateErr() error {
	if q.gate == nil {
		return nil
	}
	return q.gate()
}

// wake nudges the owner (non-blocking; the channel holds one token).
func (q *writeQueue) wake() {
	select {
	case q.work <- struct{}{}:
	default:
	}
}

// wakeProducers releases every parked producer. Broadcasting under parkMu
// closes the missed-wakeup window: a producer that saw the ring full either
// parks before this broadcast (and is woken) or re-checks its predicate
// after it (and sees the drained ring / the closed flag).
func (q *writeQueue) wakeProducers() {
	q.parkMu.Lock()
	q.parkCond.Broadcast()
	q.parkMu.Unlock()
}

// drainInto pops up to max published intents (owner only).
func (q *writeQueue) drainInto(batch []*writeIntent, max int) []*writeIntent {
	head := q.head.Load()
	for len(batch) < max {
		e := &q.ents[head&q.mask]
		if e.seq.Load() != head+1 {
			break
		}
		batch = append(batch, e.it)
		e.it = nil
		e.seq.Store(head + uint64(len(q.ents)))
		head++
	}
	q.head.Store(head)
	return batch
}

// failPending completes the close handshake (closed is already set): wake
// and wait out every producer still inside enqueue, then fail everything
// left in the ring with ErrClosed so no waiter hangs on its done signal.
func (q *writeQueue) failPending(batch []*writeIntent) {
	for q.inflight.Load() > 0 {
		q.wakeProducers()
		runtime.Gosched()
	}
	for {
		batch = q.drainInto(batch[:0], maxWriteBatch)
		if len(batch) == 0 {
			return
		}
		for _, it := range batch {
			it.err = ErrClosed
			it.done <- struct{}{}
		}
	}
}

// startWriteOwner creates the partition's intent queue and owner goroutine
// (called once during Open, before client traffic).
func (p *partition) startWriteOwner() {
	p.wq = newWriteQueue()
	p.wq.gate = p.writeGate
	go p.writeOwner()
}

// stopWriteOwner closes the queue and waits for the owner to fail every
// pending intent and exit. Must run BEFORE the compaction worker stops: a
// batch mid-apply may be hard-stalled on the worker's next commit
// (admitWrite), and stopping the worker first would strand it.
func (p *partition) stopWriteOwner() {
	q := p.wq
	q.closed.Store(true)
	q.wakeProducers()
	close(q.quit)
	<-q.done
}

// writeOwner is the partition's single-writer loop: drain a batch, apply
// it, release any producers parked on the full ring, repeat.
func (p *partition) writeOwner() {
	q := p.wq
	defer close(q.done)
	batch := make([]*writeIntent, 0, maxWriteBatch)
	for {
		select {
		case <-q.quit:
			q.failPending(batch[:0])
			return
		case <-q.work:
		}
		// Yield once before draining. The wake send schedules the owner
		// ahead of other runnable goroutines, so draining immediately would
		// collect exactly the one intent of the producer that woke us — a
		// batch of one, forever, with every producer paying a full park and
		// the batch amortizations (one spine copy, one republish, one WAL
		// group) buying nothing. One yield lets the other runnable producers
		// publish their intents first, so the drain below sees a real batch.
		runtime.Gosched()
		for {
			batch = q.drainInto(batch[:0], maxWriteBatch)
			if len(batch) == 0 {
				break
			}
			p.applyBatch(batch)
			q.wakeProducers()
		}
	}
}

// pendingBatch accumulates one applied batch's side effects that are
// deferred to the batch boundary: the WAL records (one AppendBatch instead
// of per-op appends) and the republish flag (one publishView instead of one
// per mutating op). putBodyLocked and delBodyLocked route through it when
// partition.curBatch is set.
type pendingBatch struct {
	recs  []storage.BatchEntry
	dirty bool
}

// applyBatch applies a drained batch as one critical section: clock sync
// and read drain once, every mutation in arrival order on the partition
// clock, one WAL group append (after every slab write it describes — the
// checkpoint invariant holds batch-wide), one view republication, then the
// done signals. Latency composition is per-op: each intent is billed
// exactly the clock interval its own mutation consumed.
func (p *partition) applyBatch(batch []*writeIntent) {
	if err := p.writeGate(); err != nil {
		// The DB degraded while these intents sat in the ring: fail them
		// fast with the typed read-only error, before any slab or WAL state
		// is touched. None were acknowledged, so refusing them is exactly as
		// correct as Close's ErrClosed drain — and unlike letting the batch
		// run into the poisoned WAL, it costs no mutation work.
		for _, it := range batch {
			it.rec = -1
			it.err = err
			it.done <- struct{}{}
		}
		return
	}
	p.wmu.Lock()
	p.mu.Lock()
	p.syncClockLocked()
	p.drainReadsLocked()
	b := &p.batchScratch
	b.recs = b.recs[:0]
	b.dirty = false
	p.curBatch = b
	anyTraced := false
	for _, it := range batch {
		n0 := len(b.recs)
		var a0 time.Time
		if it.tr != nil {
			// Sampled op: bill the ring wait up to now, then time the apply.
			anyTraced = true
			a0 = time.Now()
			it.tr.QueueWait = a0.Sub(it.tr.enqAt)
		}
		switch it.op {
		case intentPut:
			it.lat, _, it.err = p.putBodyLocked(it.key, it.value, false, true)
		default:
			it.lat, _, it.err = p.delBodyLocked(it.key)
		}
		if it.tr != nil {
			it.tr.Apply = time.Since(a0)
		}
		if len(b.recs) > n0 {
			it.rec = n0
		} else {
			it.rec = -1
		}
	}
	p.curBatch = nil
	var first uint64
	var aerr error
	var walDur time.Duration
	if len(b.recs) > 0 {
		// One group append for the batch: in SyncEvery mode the whole batch
		// shares one fsync, and each intent's WaitDurable barrier is its
		// record's LSN within the group.
		if anyTraced {
			w0 := time.Now()
			first, aerr = p.wal.AppendBatch(b.recs)
			walDur = time.Since(w0)
		} else {
			first, aerr = p.wal.AppendBatch(b.recs)
		}
	}
	if b.dirty {
		// Republished before any done signal: a GET issued after an
		// enqueuer's op returns always observes it (read-your-writes).
		p.publishView()
	}
	p.stats.WriteBatches++
	p.obs.writeBatch.Observe(int64(len(batch)))
	bb := bits.Len64(uint64(len(batch)))
	if bb >= len(p.wbHist) {
		bb = len(p.wbHist) - 1
	}
	p.wbHist[bb]++
	for i := range b.recs {
		b.recs[i] = storage.BatchEntry{} // drop caller-buffer refs
	}
	p.casMaxVclock(p.clk.Now())
	p.mu.Unlock()
	p.wmu.Unlock()
	for _, it := range batch {
		switch {
		case it.err != nil:
		case aerr != nil && it.rec >= 0:
			it.err = aerr
		case it.rec >= 0:
			it.lsn = first + uint64(it.rec)
		}
		if it.tr != nil && it.rec >= 0 {
			// The group append is one syscall shared by the batch; a traced
			// intent is billed its full duration (group commit makes the
			// whole append its op's durability prerequisite).
			it.tr.WALAppend = walDur
		}
		it.done <- struct{}{}
	}
}

// enqueueWait runs one client mutation through the owner: enqueue, wait
// for the apply, then wait out durability off every lock (the group-commit
// barrier, as the direct path does). tr is non-nil only for sampled ops:
// the owner fills the queue-wait/apply/WAL stages and the fsync wait is
// timed here around the durability barrier.
func (p *partition) enqueueWait(op byte, key, value []byte, tr *OpTrace) (time.Duration, error) {
	it := getIntent()
	it.op, it.key, it.value = op, key, value
	if tr != nil {
		it.tr, tr.enqAt = tr, time.Now()
	}
	if err := p.wq.enqueue(it); err != nil {
		putIntent(it)
		return 0, err
	}
	<-it.done
	lat, lsn, err := it.lat, it.lsn, it.err
	putIntent(it)
	if err != nil {
		return lat, err
	}
	return lat, p.waitDurable(lsn, tr)
}
