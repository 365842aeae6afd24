package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/prismdb/prismdb/internal/btree"
	"github.com/prismdb/prismdb/internal/buckets"
	"github.com/prismdb/prismdb/internal/mapper"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/slab"
	"github.com/prismdb/prismdb/internal/sst"
	"github.com/prismdb/prismdb/internal/storage"
	"github.com/prismdb/prismdb/internal/tracker"
)

// partition is one shared-nothing shard: a dedicated worker clock, NVM
// slabs indexed by an in-DRAM B-tree, a flash SST log, and the popularity
// machinery. Mutations are serialized by mu (the paper's partition lock);
// point reads never take it — they run against the published read view
// (see readview.go and get below).
type partition struct {
	id   int
	opts *Options

	mu  sync.Mutex
	clk *simdev.Clock

	slabs *slab.Manager
	index *btree.Tree
	man   *sst.Manifest
	trk   *tracker.Tracker
	mpr   *mapper.Mapper
	bkt   *buckets.Map
	rng   *rand.Rand

	nextVersion uint64
	nvmBudget   int64

	// wal, when the DB is durable, receives one record per client mutation,
	// appended under mu AFTER the slab write (the checkpoint invariant; see
	// durable.go). Nil for in-memory DBs and during WAL replay, making the
	// log machinery invisible to both. Acknowledgement-side durability
	// waits happen in the put/del wrappers, off the lock.
	wal *storage.WAL

	// Background-compaction overlap model: data-structure changes apply
	// atomically (reads stay consistent), but the SPACE a job reclaims
	// only becomes admissible when the job's virtual I/O completes.
	// spaceCredit is the admission budget: fresh inserts debit it, client
	// deletes credit it immediately, and each compaction job's freed
	// bytes mature at its compEndAt. Writes that outrun compaction
	// completions stall — the paper's rate limiting (§4.2).
	compEndAt   int64
	compQueue   []compJob
	spaceCredit int64

	rt readTriggerState

	// bg is the async-compaction worker state (CompactionAsync mode; the
	// conds are tied to mu, and every field is guarded by it). Triggers
	// set a pending flag and signal jobCond; the worker runs jobs in
	// prepare (locked) → execute (unlocked) → commit (locked) phases and
	// broadcasts commitCond after each round's commit and when it idles,
	// waking admission-stalled writers and drainers.
	bg struct {
		jobCond    *sync.Cond
		commitCond *sync.Cond

		demotePending  bool
		promotePending bool
		running        bool
		stopping       bool

		// Virtual trigger timestamps: an async job's background clock
		// starts where the sync job's would have — at the foreground
		// clock of the op that armed it — so virtual-time results do not
		// depend on how quickly the worker goroutine got scheduled.
		demoteTriggerNs  int64
		promoteTriggerNs int64

		// In-flight demotion merge key range [lo, hi) (nil = ±∞). While
		// active, a client delete inside it conservatively writes a
		// tombstone even when flash holds no older version: the merge may
		// be about to publish one (see del).
		rangeActive      bool
		rangeLo, rangeHi []byte

		done chan struct{} // closed when the worker goroutine exits
	}

	// scanBufs is a small free list of NVM-cursor entry buffers recycled
	// across iterators (guarded by mu, like everything else on the
	// partition). arenas is the DB's cache of merge read buffers (see
	// mergeArenas). pinnedBuf and rangeBuf are compaction scratch (single
	// compaction thread), reused so the worker's LOCKED prepare phase
	// allocates nothing per round.
	scanBufs  [][]nvmEntry
	arenas    *arenaCache
	pinnedBuf [][]byte
	rangeBuf  []candRange

	// Lock-free read substrate (readview.go): the published read view
	// (atomic.Pointer, republished under mu by tree/manifest mutations),
	// the virtual-clock frontier off-lock reads seed from and fold into,
	// sharded read counters and the popularity touch ring (drained into
	// stats/tracker/read-trigger state by whoever holds mu), the slot-read
	// buffer rack, and the readers' drain-cadence counter.
	view       atomic.Pointer[readView]
	vclock     atomic.Int64
	sink       [sinkShards]readShard
	touches    *touchRing
	readBufs   bufRack
	sinceDrain atomic.Int64

	// Write path (writequeue.go): wq is the owner goroutine's intent queue,
	// started by Open. wmu serializes client mutations end to end: the owner
	// holds it across a whole batch, a direct writer across its one op. The
	// partition lock alone cannot, because admitWrite's hard stall releases
	// mu in the middle of a mutation; without wmu a direct writer could
	// apply inside a stalled batch, defer its view republication and WAL
	// record into that batch, and return to its client before either
	// happened. Lock order: wmu before mu. curBatch is non-nil only inside
	// applyBatch (guarded by wmu); putBodyLocked and delBodyLocked route
	// their WAL records and view republication through it so the whole
	// batch shares one append and one publish. wbHist is the batch-size
	// histogram (guarded by mu, bits.Len-bucketed like the WAL's
	// group-commit histogram).
	wq           *writeQueue
	wmu          sync.Mutex
	curBatch     *pendingBatch
	batchScratch pendingBatch
	wbHist       [16]int64

	// obs holds the DB-wide telemetry instruments (shared across
	// partitions; every instrument is lock-free or nil-safe).
	obs *engineObs

	// health is the DB-wide failure-domain state machine (set by Open right
	// after construction; nil only for partitions built directly in tests).
	// Client mutations gate on it, the write owners drain-fail queued
	// intents through it, and the compaction worker stands down when it
	// leaves Healthy.
	health *healthTracker

	// Hill-climbing threshold tuner state (§7.4 future work).
	pinThreshold float64
	tuneOps      int
	tuneLastT    int64   // clock at window start
	tuneLastRate float64 // ops/sec of the previous window
	tuneDir      float64 // +step or -step

	stats Stats
}

// chargeCPU charges CPU work to clk, through the shared core pool when one
// is configured. Partition workers and DB-level iterators share it.
func chargeCPU(pool *simdev.CPUPool, clk *simdev.Clock, d time.Duration) {
	if d <= 0 {
		return
	}
	if pool != nil {
		pool.Charge(clk, d)
	} else {
		clk.Advance(d)
	}
}

func (p *partition) chargeCPU(clk *simdev.Clock, d time.Duration) {
	chargeCPU(p.opts.CPUPool, clk, d)
}

// readTriggerState is the detection → invocation → monitoring machine of
// §5.3.
type readTriggerState struct {
	phase      rtPhase
	opsInPhase int
	reads      int64
	writes     int64
	nvmReads   int64 // reads served from DRAM/NVM this epoch
	flashReads int64
	lastRatio  float64
}

type rtPhase int

const (
	rtDetect rtPhase = iota
	rtActive
	rtCooldown
)

func newPartition(id int, opts *Options, dur *durable, eo *engineObs, arenas *arenaCache) (*partition, error) {
	p := &partition{
		id:        id,
		obs:       eo,
		opts:      opts,
		arenas:    arenas,
		clk:       simdev.NewClock(),
		index:     btree.New(),
		mpr:       mapper.New(opts.PinningThreshold),
		rng:       rand.New(rand.NewSource(opts.Seed + int64(id)*7919)),
		nvmBudget: opts.NVMBudget / int64(opts.Partitions),
	}
	trkCap := opts.TrackerCapacity / opts.Partitions
	if trkCap < 16 {
		trkCap = 16
	}
	p.trk = tracker.New(trkCap)
	p.touches = newTouchRing()
	p.bkt = buckets.New(opts.KeySpace, opts.BucketKeys)
	p.pinThreshold = opts.PinningThreshold
	p.tuneDir = opts.AutoTuneStep
	p.bg.jobCond = sync.NewCond(&p.mu)
	p.bg.commitCond = sync.NewCond(&p.mu)

	var err error
	p.slabs, err = slab.NewManager(opts.NVM, opts.Cache, fmt.Sprintf("p%d-slab", id), opts.SlabClasses)
	if err != nil {
		return nil, err
	}
	if dur != nil {
		// Durable mode: the live SST set comes from the manifest journal,
		// and opening each table verifies its footer — a table the journal
		// committed but whose file is torn or missing fails Open loudly.
		var tables []*sst.Table
		for _, name := range dur.journal.Live(id) {
			t, terr := sst.Open(opts.Flash, opts.Cache, name, p.clk)
			if terr != nil {
				return nil, fmt.Errorf("manifest journal references %s: %w", name, terr)
			}
			tables = append(tables, t)
		}
		p.man = sst.NewManifestJournaled(opts.Flash, opts.Cache, dur.journal, id, tables)
	} else {
		manName := fmt.Sprintf("p%d-MANIFEST", id)
		if _, openErr := opts.Flash.OpenFile(manName); openErr == nil {
			p.man, err = sst.LoadManifest(opts.Flash, opts.Cache, manName, p.clk)
		} else {
			p.man, err = sst.NewManifest(opts.Flash, opts.Cache, manName)
		}
		if err != nil {
			return nil, err
		}
	}
	p.nextVersion = 1
	return p, nil
}

// recover rebuilds the B-tree index from the slab files (keeping the newest
// version per key and freeing stale duplicate slots), rebuilds bucket
// state, and restores the version counter. Partitions recover independently
// and in parallel in the paper; here each charges its own clock.
func (p *partition) recover() error {
	type liveEntry struct {
		loc slab.Loc
		ver uint64
	}
	seen := map[string]liveEntry{}
	var staleLocs []slab.Loc
	err := p.slabs.Recover(p.clk, func(loc slab.Loc, rec slab.Record) {
		if rec.Version >= p.nextVersion {
			p.nextVersion = rec.Version + 1
		}
		if old, ok := seen[string(rec.Key)]; ok {
			// Crash between new-slot write and old-slot free left two
			// versions; keep the newest.
			if rec.Version > old.ver {
				staleLocs = append(staleLocs, old.loc)
				seen[string(rec.Key)] = liveEntry{loc, rec.Version}
			} else {
				staleLocs = append(staleLocs, loc)
			}
			return
		}
		seen[string(rec.Key)] = liveEntry{loc, rec.Version}
	})
	if err != nil {
		return err
	}
	for _, l := range staleLocs {
		if err := p.slabs.FreeSlot(p.clk, l); err != nil {
			return err
		}
	}
	for k, e := range seen {
		p.index.Insert([]byte(k), uint64(e.loc))
		p.bkt.OnPut(p.opts.KeyIndex([]byte(k)))
	}
	p.spaceCredit = p.nvmBudget - p.usage()
	// Rebuild flash bucket bits from the SST log.
	snap := p.man.Acquire()
	defer snap.Release()
	for _, t := range snap.Tables() {
		err := t.ReadAll(p.clk, nil, func(r sst.Record) error {
			p.bkt.OnDemote(p.opts.KeyIndex(r.Key))
			// OnDemote would clear the NVM bit; restore it if the key is
			// also NVM-resident.
			if _, ok := seen[string(r.Key)]; ok {
				p.bkt.OnPut(p.opts.KeyIndex(r.Key))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// usage returns the partition's NVM consumption: live slab bytes plus the
// flash index/filter metadata PrismDB keeps on NVM (§4.1).
func (p *partition) usage() int64 {
	return p.slabs.LiveBytes() + p.man.MetaBytes()
}

// compJob records a background compaction whose reclaimed space matures at
// endAt.
type compJob struct {
	endAt int64
	freed int64
}

// admitWrite applies the rate-limiting model (§4.2): a space-consuming
// write debits the partition's space credit; compaction reclaim matures at
// each job's virtual completion. When credit runs dry the writer stalls
// until the next job completes — virtually when a committed job's reclaim
// is still maturing, and (async mode only) in host time when the reclaim
// is still inside an uncommitted background merge, so a writer can never
// outrun the worker unboundedly.
func (p *partition) admitWrite(slotSize int64) {
	p.matureCredit(p.clk.Now())
	hardStalled := false
	var stallStart time.Time
	for p.spaceCredit < slotSize {
		if len(p.compQueue) > 0 {
			p.stallTo(p.compQueue[0].endAt)
			p.matureCredit(p.clk.Now())
			continue
		}
		if (p.bg.running || p.bg.demotePending) && !p.bg.stopping {
			// A background job holds the space this write needs. Block
			// (releasing the partition lock) until its next commit banks
			// reclaim into compQueue, then stall virtually as usual. One
			// write counts as one hard stall however many chunk commits
			// it waits through.
			if !hardStalled {
				hardStalled = true
				stallStart = time.Now()
				p.stats.CompactionHardStalls++
			}
			t0 := time.Now()
			p.bg.commitCond.Wait()
			p.stats.CompactionHardStallTime += time.Since(t0)
			p.matureCredit(p.clk.Now())
			continue
		}
		// No job can free anything: the bookkept space is authoritative
		// (the watermark trigger will start a job on this very write if
		// needed).
		break
	}
	if hardStalled {
		p.obs.events.Emit("write_stall",
			"partition", p.id, "hard", true, "took_ms", time.Since(stallStart))
	}
	p.spaceCredit -= slotSize
}

// matureCredit banks the reclaim of every job completed by time now.
func (p *partition) matureCredit(now int64) {
	for len(p.compQueue) > 0 && p.compQueue[0].endAt <= now {
		p.spaceCredit += p.compQueue[0].freed
		p.compQueue = p.compQueue[1:]
	}
}

func (p *partition) stallTo(t int64) {
	stall := p.clk.AdvanceTo(t)
	if stall > 0 {
		p.stats.WriteStalls++
		p.stats.WriteStallTime += stall
	}
}

// write applies one client mutation (intentPut or intentDel) and waits out
// its durability. An uncontended caller — intent ring idle and the lock
// free — is a batch of one: handing the op to the owner would buy nothing
// and cost two scheduler handoffs, so it applies directly under the lock it
// just took. Under contention TryLock fails (or intents are already queued)
// and the op rides the owner queue (writequeue.go), where real batches form.
// The direct path needs wmu as well as mu: an owner batch hard-stalled in
// admitWrite has released mu but still holds wmu, and an op that cannot
// take wmu queues behind that batch instead of applying inside it.
// Either path then blocks off-lock (durable DBs in SyncEvery mode) until
// the op's WAL record is fsynced, so the group-commit wait never serializes
// the partition. tr is non-nil only for sampled ops and receives the op's
// stage timings (see OpTrace).
func (p *partition) write(op byte, key, value []byte, tr *OpTrace) (time.Duration, error) {
	if err := p.writeGate(); err != nil {
		return 0, err
	}
	if !p.wq.idle() || !p.wmu.TryLock() {
		return p.enqueueWait(op, key, value, tr)
	}
	if !p.mu.TryLock() {
		p.wmu.Unlock()
		return p.enqueueWait(op, key, value, tr)
	}
	var a0 time.Time
	if tr != nil {
		a0 = time.Now()
	}
	// A plain counter under the already-held lock, NOT an atomic histogram
	// observation: this is the write hot path, and the shared instrument's
	// cache-line traffic costs several percent of contended throughput. The
	// collector folds DirectWrites into prism_write_batch_ops as batches of
	// one at gather time.
	p.stats.DirectWrites++
	lat, lsn, err := p.applyLocked(op, key, value, true)
	p.mu.Unlock()
	p.wmu.Unlock()
	if tr != nil {
		tr.Apply = time.Since(a0)
	}
	if err != nil {
		return lat, err
	}
	return lat, p.waitDurable(lsn, tr)
}

// applyLocked is the lock-entry prologue and body of one mutation applied
// on its own — the direct client path and WAL replay: fold the off-lock
// clock frontier and read state, run the op, publish the clock. The owner
// runs the same prologue once per batch (applyBatch). Folding read state on
// every op keeps the serial driver's virtual time a function of the op
// stream alone. Caller holds p.mu.
func (p *partition) applyLocked(op byte, key, value []byte, clientOp bool) (time.Duration, uint64, error) {
	p.syncClockLocked()
	p.drainReadsLocked()
	var lat time.Duration
	var lsn uint64
	var err error
	if op == intentDel {
		lat, lsn, err = p.delBodyLocked(key)
	} else {
		lat, lsn, err = p.putBodyLocked(key, value, false, clientOp)
	}
	p.casMaxVclock(p.clk.Now())
	return lat, lsn, err
}

// waitDurable blocks off-lock until lsn is durable, billing the wait to
// tr.FsyncWait for a traced op.
func (p *partition) waitDurable(lsn uint64, tr *OpTrace) error {
	if tr == nil {
		return p.wal.WaitDurable(lsn)
	}
	f0 := time.Now()
	err := p.wal.WaitDurable(lsn)
	tr.FsyncWait = time.Since(f0)
	return err
}

// putBodyLocked is the put mutation body shared by applyLocked, the owner's
// applyBatch and del's inline tombstone insert. clientOp distinguishes
// client Puts from internal writes (that tombstone, WAL replay), so the
// Puts counter counts exactly the client operations issued, internal
// writes never touch the popularity tracker, and only client operations
// are WAL-logged (a tombstone is re-derived from its DEL record at replay;
// replayed records must not re-log). The WAL append happens at the end,
// after the slab write it describes — the ordering the checkpoint scheme
// depends on (durable.go). The caller holds p.mu with the clock synced and
// reads drained; admission may briefly release and re-acquire the lock
// (see admitWrite).
func (p *partition) putBodyLocked(key, value []byte, tomb, clientOp bool) (time.Duration, uint64, error) {
	// Republish the read view when this put changed the B-tree (fresh
	// insert, class-change move) or the manifest (a sync compaction inside
	// maybeCompact republishes itself, but the flag keeps the put's own
	// mutations covered even on early error paths). In-place slot updates
	// skip the republish: the published locations still resolve and readers
	// pick the new bytes straight off the slab file. The view goes out
	// BEFORE the latency is returned to the client, so a GET issued after a
	// PUT's reply always observes it (read-your-writes). Inside an owner
	// batch the publish is deferred to the batch boundary instead — still
	// before any of the batch's done signals, so the guarantee holds.
	republish := false
	defer func() {
		if !republish {
			return
		}
		if b := p.curBatch; b != nil {
			b.dirty = true
		} else {
			p.publishView()
		}
	}()
	start := p.clk.Now()
	cpu := p.opts.CPU
	p.chargeCPU(p.clk, cpu.OpBase+cpu.IndexOp)

	rec := slab.Record{Key: key, Value: value, Tombstone: tomb}
	ci := p.slabs.ClassOf(len(key), len(value))
	if ci < 0 {
		return 0, 0, fmt.Errorf("core: object of %d bytes too large", len(key)+len(value))
	}
	idx := p.opts.KeyIndex(key)
	fastInPlace := false
	if v, ok := p.index.Get(key); ok {
		loc := slab.Loc(v)
		if loc.Class() == ci && !p.slabs.Pinned() {
			// In-place updates reuse their slot: no new NVM space is
			// consumed, so they are never rate-limited (§4.1). With an
			// open scan epoch the update instead goes copy-on-write
			// below, so pinned iterators keep their snapshot value.
			rec.Version = p.takeVersion()
			if err := p.slabs.Update(p.clk, loc, rec); err != nil {
				return 0, 0, err
			}
			p.stats.InPlaceUpdates++
			fastInPlace = true
		}
	}
	if !fastInPlace {
		// A new slot will be consumed: class change, copy-on-write under a
		// pinned epoch, or fresh insert. Admission may release the
		// partition lock (async hard stall on an uncommitted merge), so
		// the index is re-consulted — and the version taken — only after
		// it returns: a background commit may have demoted, promoted, or
		// freed this key's slot while the writer was blocked, and stale
		// state here would double-free a recycled slot.
		p.admitWrite(int64(p.slabs.ClassSize(ci)))
		rec.Version = p.takeVersion()
		if v, ok := p.index.Get(key); ok {
			loc := slab.Loc(v)
			if loc.Class() == ci && !p.slabs.Pinned() {
				// Became updatable in place while stalled (e.g. the merge
				// holding the epoch pin committed): reuse the slot and
				// refund the admission debit for the slot we won't take.
				p.spaceCredit += int64(p.slabs.ClassSize(ci))
				if err := p.slabs.Update(p.clk, loc, rec); err != nil {
					return 0, 0, err
				}
				p.stats.InPlaceUpdates++
			} else {
				// Changed size class (or pinned epoch): delete + fresh
				// insert (§6). The old slot's space returns to the
				// admission credit immediately.
				oldSlot := int64(p.slabs.SlotSize(loc))
				if err := p.slabs.Delete(p.clk, loc); err != nil {
					return 0, 0, err
				}
				p.spaceCredit += oldSlot
				newLoc, err := p.slabs.Put(p.clk, rec)
				if err != nil {
					return 0, 0, err
				}
				p.index.Insert(key, uint64(newLoc))
				p.stats.SlabMoves++
				republish = true
			}
		} else {
			loc, err := p.slabs.Put(p.clk, rec)
			if err != nil {
				return 0, 0, err
			}
			// The index retains the key slice for the life of the entry
			// (iterator snapshots alias it), so a fresh insert takes a private
			// copy — network callers recycle their argument buffers between
			// commands. Existing-key paths replace only the stored value.
			p.index.Insert(append([]byte(nil), key...), uint64(loc))
			p.bkt.OnPut(idx)
			p.stats.FreshInserts++
			republish = true
		}
	}
	if clientOp {
		// Internal writes (the tombstone a Delete routes through here)
		// must NOT touch the popularity tracker: the delete just Forgot
		// the key, and re-inserting it would evict a live hot key, re-mark
		// the bucket hot, and let ShouldPin pin the tombstone in NVM so it
		// never demotes or annihilates.
		p.touch(key, idx, tracker.NVM)
		p.stats.Puts++
	}
	var lsn uint64
	if p.wal != nil && clientOp {
		// Inside an owner batch the record joins the batch's group append
		// (issued after every slab write in the batch — the checkpoint
		// invariant holds batch-wide); otherwise it is appended here, after
		// this op's own slab write.
		if b := p.curBatch; b != nil {
			b.recs = append(b.recs, storage.BatchEntry{Op: storage.OpPut, Key: key, Value: value})
		} else {
			var werr error
			if lsn, werr = p.wal.AppendPut(key, value); werr != nil {
				return 0, 0, werr
			}
		}
	}
	p.maybeCompact()
	p.rt.onOp(p, false)
	return time.Duration(p.clk.Now() - start), lsn, nil
}

// writeGate returns the sticky ErrReadOnly-wrapped error when the DB has
// degraded, nil while healthy (and for partitions built without a DB in
// tests). One atomic load on the healthy hot path.
func (p *partition) writeGate() error {
	if p.health == nil {
		return nil
	}
	return p.health.writeErr()
}

// takeVersion hands out the next slab-record version. Taken at write time
// (after any admission stall), so versions per key stay monotone in lock
// order — what crash recovery's keep-the-newest rule depends on.
func (p *partition) takeVersion() uint64 {
	v := p.nextVersion
	p.nextVersion++
	return v
}

// touch updates the tracker and popularity bitmap for an access. The
// tracker stores the key's index and returns the evicted entry's stored
// index, so no key bytes are re-derived (or allocated) on eviction.
func (p *partition) touch(key []byte, idx uint64, loc tracker.Location) {
	if evictedIdx, did := p.trk.Touch(key, idx, loc); did {
		p.bkt.OnCold(evictedIdx)
	}
	p.bkt.OnHot(idx)
}

// getViewRetries bounds how many stale views a lock-free GET burns through
// before falling back to the partition lock. Staleness is proven by slot
// validation (a freed/recycled slot under a view-resolved location); each
// retry re-acquires the then-current view, so only a writer churning the
// same key faster than the reader can re-read keeps failing — at which
// point queueing on the lock is the honest outcome anyway.
const getViewRetries = 4

// get returns the newest version of key and the tier that served it. The
// value is appended to dst (which may be nil): callers that pass a reused
// buffer get an allocation-free NVM read path.
//
// The fast path is lock-free: it never takes p.mu. It acquires the
// partition's published read view (copy-on-write B-tree root + refcounted
// manifest snapshot), seeds a private virtual clock from the partition's
// published frontier, charges all CPU and device time to it, and folds the
// end time back with one atomic max — so serial virtual-time sequencing is
// identical to the locked path, while concurrent GETs overlap in virtual
// time exactly as concurrent requests to a real device would. Read stats
// land in sharded atomic counters and popularity touches in a bounded
// lock-free ring, both drained into the guarded structures by whoever next
// holds the lock (see readview.go for the publication and validation
// rules).
func (p *partition) get(key, dst []byte) ([]byte, Tier, time.Duration, error) {
	idx := p.opts.KeyIndex(key)
	for attempt := 0; attempt < getViewRetries; attempt++ {
		val, tier, lat, err, ok := p.getLockFree(key, dst, idx)
		if ok {
			p.maybeDrainReads()
			return val, tier, lat, err
		}
		// Off the fast path already (stale view), so the retry counter's
		// atomic add costs nothing that matters.
		p.obs.viewRetries.Inc()
	}
	return p.getLocking(key, dst, idx)
}

// getLockFree is one attempt of the lock-free read. ok=false means the
// view was proven stale (the slot under its location was freed, recycled,
// or mid-move) and the caller should retry against a fresh view.
func (p *partition) getLockFree(key, dst []byte, idx uint64) (value []byte, tier Tier, lat time.Duration, err error, ok bool) {
	v := p.acquireView()
	defer v.release()
	var clk simdev.Clock
	start := p.vclock.Load()
	clk.AdvanceTo(start)
	cpu := p.opts.CPU
	p.chargeCPU(&clk, cpu.OpBase+cpu.IndexOp)
	sh := &p.sink[idx&(sinkShards-1)]

	if lv, found := v.tree.Get(key); found {
		h := p.readBufs.take()
		before := clk.Now()
		rec, buf, rerr := p.slabs.ReadSlotInto(&clk, slab.Loc(lv), h.b)
		h.b = buf
		if rerr != nil || !bytes.Equal(rec.Key, key) {
			// Freed (zeroed header), recycled to another key, or otherwise
			// unreadable: the view is stale. The aborted attempt's device
			// time is discarded with its private clock.
			p.readBufs.put(h)
			return nil, TierMiss, 0, nil, false
		}
		src := TierNVM
		if clk.Now() == before {
			src = TierDRAM // page-cache hit: no device time
		}
		if rec.Tombstone {
			p.readBufs.put(h)
			sh.gets.Add(1)
			sh.miss.Add(1)
			p.casMaxVclock(clk.Now())
			return nil, TierMiss, time.Duration(clk.Now() - start), nil, true
		}
		value = append(dst[:0], rec.Value...)
		p.readBufs.put(h)
		sh.gets.Add(1)
		if src == TierDRAM {
			sh.dram.Add(1)
		} else {
			sh.nvm.Add(1)
		}
		p.touches.push(key, idx, tracker.NVM)
		p.casMaxVclock(clk.Now())
		return value, src, time.Duration(clk.Now() - start), nil, true
	}

	// Flash lookup through the view's pinned SST snapshot: tables are
	// disjoint and sorted by smallest key, so a binary search finds the
	// single candidate table. The snapshot's tables cannot be deleted while
	// the view holds its reference.
	if t := v.snap.Find(key); t != nil {
		p.chargeCPU(&clk, cpu.BloomCheck)
		if t.MayContain(key) {
			before := clk.Now()
			rec, found, gerr := t.Get(&clk, key)
			if gerr != nil {
				// Count the GET (the locked path counts every GET at entry,
				// errored or not) and fold the time it consumed; no tier
				// counter, matching getLocking's error return.
				sh.gets.Add(1)
				p.casMaxVclock(clk.Now())
				return nil, TierMiss, 0, gerr, true
			}
			if found && !rec.Tombstone {
				src := TierFlash
				if clk.Now() == before {
					src = TierDRAM
				}
				value = append(dst[:0], rec.Value...)
				sh.gets.Add(1)
				if src == TierDRAM {
					sh.dram.Add(1)
				} else {
					sh.flash.Add(1)
				}
				p.touches.push(key, idx, tracker.Flash)
				p.casMaxVclock(clk.Now())
				return value, src, time.Duration(clk.Now() - start), nil, true
			}
			// The filter said maybe, the table said no (or only a
			// tombstone): a wasted flash probe.
			sh.bloomFP.Add(1)
		}
	}
	sh.gets.Add(1)
	sh.miss.Add(1)
	p.casMaxVclock(clk.Now())
	return nil, TierMiss, time.Duration(clk.Now() - start), nil, true
}

// getLocking is the fallback read under the partition lock: the pre-view
// code path, taken when repeated validation failures prove the key is being
// churned faster than an optimistic reader can keep up (or, transitively,
// while an inline sync compaction holds the lock and zeroes slots).
func (p *partition) getLocking(key, dst []byte, idx uint64) ([]byte, Tier, time.Duration, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.syncClockLocked()
	p.drainReadsLocked()
	defer func() { p.casMaxVclock(p.clk.Now()) }()
	start := p.clk.Now()
	cpu := p.opts.CPU
	p.chargeCPU(p.clk, cpu.OpBase+cpu.IndexOp)
	p.stats.Gets++

	if v, ok := p.index.Get(key); ok {
		before := p.clk.Now()
		rec, err := p.slabs.GetScratch(p.clk, slab.Loc(v))
		if err != nil {
			return nil, TierMiss, 0, err
		}
		src := TierNVM
		if p.clk.Now() == before {
			src = TierDRAM // page-cache hit: no device time
		}
		if rec.Tombstone {
			p.recordGet(TierMiss)
			p.rt.onOp(p, true)
			return nil, TierMiss, time.Duration(p.clk.Now() - start), nil
		}
		// Materialize the value before anything (promotion compactions in
		// rt.onOp, a later op) reuses the slab scratch under rec.
		value := append(dst[:0], rec.Value...)
		p.recordGet(src)
		p.touch(key, idx, tracker.NVM)
		p.rt.onOp(p, true)
		return value, src, time.Duration(p.clk.Now() - start), nil
	}

	// Flash lookup through the SST log: tables are disjoint and sorted by
	// smallest key, so a binary search finds the single candidate table.
	snap := p.man.Acquire()
	defer snap.Release()
	if t := snap.Find(key); t != nil {
		p.chargeCPU(p.clk, cpu.BloomCheck)
		if t.MayContain(key) {
			before := p.clk.Now()
			rec, found, err := t.Get(p.clk, key)
			if err != nil {
				return nil, TierMiss, 0, err
			}
			if found && !rec.Tombstone {
				src := TierFlash
				if p.clk.Now() == before {
					src = TierDRAM
				}
				value := append(dst[:0], rec.Value...)
				p.recordGet(src)
				p.touch(key, idx, tracker.Flash)
				p.rt.onOp(p, true)
				return value, src, time.Duration(p.clk.Now() - start), nil
			}
			p.stats.BloomFalsePositives++
		}
	}
	p.recordGet(TierMiss)
	p.rt.onOp(p, true)
	return nil, TierMiss, time.Duration(p.clk.Now() - start), nil
}

func (p *partition) recordGet(src Tier) {
	switch src {
	case TierDRAM:
		p.stats.GetDRAM++
		p.rt.nvmReads++
	case TierNVM:
		p.stats.GetNVM++
		p.rt.nvmReads++
	case TierFlash:
		p.stats.GetFlash++
		p.rt.flashReads++
	default:
		p.stats.GetMiss++
	}
}

// delBodyLocked removes key. NVM versions are deleted directly; if an older
// version may remain on flash a tombstone is inserted to NVM, to die in a
// later merge (§6). It is the delete mutation body shared by applyLocked
// and the owner's applyBatch. The caller holds p.mu with the clock synced
// and reads drained.
func (p *partition) delBodyLocked(key []byte) (time.Duration, uint64, error) {
	republish := false
	defer func() {
		if !republish {
			return
		}
		if b := p.curBatch; b != nil {
			b.dirty = true
		} else {
			p.publishView()
		}
	}()
	start := p.clk.Now()
	cpu := p.opts.CPU
	p.chargeCPU(p.clk, cpu.OpBase+cpu.IndexOp)
	idx := p.opts.KeyIndex(key)

	if v, ok := p.index.Get(key); ok {
		oldSlot := int64(p.slabs.SlotSize(slab.Loc(v)))
		if err := p.slabs.Delete(p.clk, slab.Loc(v)); err != nil {
			return 0, 0, err
		}
		p.index.Delete(key)
		p.bkt.OnNVMDelete(idx)
		p.spaceCredit += oldSlot
		republish = true
	}
	// Does flash possibly hold an older version? (Disjoint sorted tables:
	// binary-search the one candidate.) While an async demotion merge
	// covering this key is in flight, the answer must be a conservative
	// yes: the merge may be about to publish an NVM version of the key to
	// flash, and only a tombstone keeps it from resurrecting after the
	// merge commits.
	flashMay := false
	snap := p.man.Acquire()
	if t := snap.Find(key); t != nil {
		p.chargeCPU(p.clk, cpu.BloomCheck)
		flashMay = t.MayContain(key)
	}
	snap.Release()
	if !flashMay && p.bg.rangeActive && inRange(key, p.bg.rangeLo, p.bg.rangeHi) {
		flashMay = true
	}
	p.trk.Forget(key)
	p.bkt.OnCold(idx)
	p.stats.Deletes++
	// The delete's reported latency is composed from its phases' durations:
	// phase 1 (index/slab removal) plus the tombstone insert below. Both run
	// in one critical section, so no interleaved client op can be billed to
	// this delete.
	lat := time.Duration(p.clk.Now() - start)
	if flashMay {
		// Fresh tombstone insert (the normal put path, but as an internal
		// write: it is part of the delete, not a client put, so it never
		// touches the Puts counter or the popularity tracker, and its
		// durability rides on this delete's DEL record rather than a log
		// entry of its own). It runs inline, in the SAME critical section
		// and BEFORE the DEL append: every slab write the delete implies
		// must be issued before its WAL record exists, or a checkpoint
		// racing the gap could prune the only durable trace of this delete
		// while the slab files still lack the tombstone — and a crash would
		// resurrect the key from flash.
		tombLat, _, err := p.putBodyLocked(key, nil, true, false)
		if err != nil {
			return 0, 0, err
		}
		lat += tombLat
	}
	// One DEL record covers the whole delete, tombstone included: replay
	// re-runs the delete, which re-derives the tombstone decision from the
	// recovered state. Logged after every slab write this delete issues
	// (put's slab-write-before-append ordering), so the log's per-key order
	// equals lock order; inside an owner batch the record joins the batch's
	// group append, which happens after the batch's last slab write. The
	// NVM slot free itself may still be deferred by a pinned epoch — the
	// DeferredDirty checkpoint barrier (durable.go) keeps this record alive
	// until the zeroing write is issued.
	var lsn uint64
	if p.wal != nil {
		if b := p.curBatch; b != nil {
			b.recs = append(b.recs, storage.BatchEntry{Op: storage.OpDel, Key: key})
		} else {
			var werr error
			if lsn, werr = p.wal.AppendDel(key); werr != nil {
				return 0, 0, werr
			}
		}
	}
	return lat, lsn, nil
}

// inRange reports whether key falls in [lo, hi), nil bounds meaning ±∞.
func inRange(key, lo, hi []byte) bool {
	return (lo == nil || bytes.Compare(key, lo) >= 0) &&
		(hi == nil || bytes.Compare(key, hi) < 0)
}

// KV is a scan result element.
type KV struct {
	Key   []byte
	Value []byte
}

// nvmEntry is one NVM-cursor element of the iterator's index snapshot.
type nvmEntry struct {
	key []byte
	loc slab.Loc
}

// takeScanBufLocked hands out a recycled NVM-cursor entry buffer (caller
// holds mu).
func (p *partition) takeScanBufLocked() []nvmEntry {
	if n := len(p.scanBufs); n > 0 {
		b := p.scanBufs[n-1]
		p.scanBufs = p.scanBufs[:n-1]
		return b[:0]
	}
	return make([]nvmEntry, 0, 64)
}

// putScanBufLocked returns an entry buffer to the free list (caller holds
// mu). The list is small: steady-state scan traffic reuses a handful of
// buffers, and anything beyond that is left to the GC.
func (p *partition) putScanBufLocked(b []nvmEntry) {
	if cap(b) > 0 && len(p.scanBufs) < 8 {
		p.scanBufs = append(p.scanBufs, b[:0])
	}
}

// objectCounts reports live objects per tier.
func (p *partition) objectCounts() (nvm, flash int64) {
	return int64(p.slabs.LiveObjects()), int64(p.man.TotalCount())
}
