package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/prismdb/prismdb/internal/tracker"
)

// ErrClosed is returned by every operation issued after Close, and surfaced
// through Err/Close by iterators that outlive the DB. Serving front ends
// rely on it for graceful shutdown: once the DB is closed, racing requests
// fail deterministically instead of touching torn-down state.
var ErrClosed = errors.New("prismdb: database closed")

// DB is a PrismDB instance: Options.Partitions shared-nothing partitions
// over one NVM device and one flash device. Methods are safe for concurrent
// use. Mutations serialize on their partition's lock, as in the paper's
// worker-thread-per-partition design; point reads (Get/GetBuf) are
// lock-free against each partition's published read view, so concurrent
// GETs on one hot partition scale with cores instead of queueing on its
// mutex (see the package docs' Concurrency notes in prismdb.go).
type DB struct {
	opts   Options
	parts  []*partition
	dur    *durable // nil without Options.DataDir
	obs    *engineObs
	arenas arenaCache
	health *healthTracker
	scrub  *scrubber // nil unless Options.ScrubInterval > 0 (durable mode)
	closed atomic.Bool
}

// Open creates or recovers a DB. If the devices already hold this DB's
// files (slabs, manifests, SSTs), state is rebuilt from them — slab writes
// are synchronous and carry version timestamps, so recovery is a scan per
// partition (§6). With Options.DataDir set, the files are real files: Open
// locks the directory, replays the manifest journal, rebuilds each
// partition from its recovered slab and SST files, replays the WAL tail
// (tolerating a torn final record), and checkpoints — see durable.go.
func Open(opts Options) (*DB, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	db := &DB{opts: opts, obs: newEngineObs(opts.Metrics, opts.Events)}
	db.health = newHealthTracker(db.obs.events)
	if opts.DataDir != "" {
		if err := db.openDurable(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < opts.Partitions; i++ {
		p, err := newPartition(i, &db.opts, db.dur, db.obs, &db.arenas)
		if err != nil {
			db.abortOpen()
			return nil, fmt.Errorf("core: partition %d: %w", i, err)
		}
		p.health = db.health
		if err := p.recover(); err != nil {
			db.abortOpen()
			return nil, fmt.Errorf("core: recover partition %d: %w", i, err)
		}
		// First view publication: lock-free GETs are served from the moment
		// Open returns. (Single-threaded here, so no lock is needed.) The
		// write owner idles until client traffic arrives: WAL replay applies
		// directly (finishDurable), so its start order is immaterial.
		p.publishView()
		p.startWriteOwner()
		db.parts = append(db.parts, p)
	}
	if opts.CompactionMode == CompactionAsync {
		// Workers start before WAL replay: replayed writes go through the
		// ordinary admission path, which may need a background commit to
		// free space.
		for _, p := range db.parts {
			p.startWorker()
		}
	}
	// A degrade transition must reach producers parked on a full intent
	// ring (their park predicate now fails through the health gate) and the
	// owners themselves, so intents already queued are drain-failed with
	// ErrReadOnly promptly instead of at the next client push. Registered
	// before the WAL flusher starts (finishDurable) — the first sticky I/O
	// error can arrive the moment traffic does.
	db.health.onDegrade = append(db.health.onDegrade, func() {
		for _, p := range db.parts {
			p.wq.wake()
			p.wq.wakeProducers()
		}
	})
	if db.dur != nil {
		if err := db.finishDurable(); err != nil {
			db.abortOpen()
			return nil, err
		}
	}
	if db.dur != nil && opts.ScrubInterval > 0 {
		db.scrub = db.startScrubber()
	}
	db.registerCollector()
	return db, nil
}

// abortOpen releases whatever a failed Open acquired (the data-directory
// lock, most importantly). It must NOT go through db.Close: closeDurable
// checkpoints the slabs and prunes the WAL, and after a failed replay that
// would delete segments whose records were never applied — the first Open
// fails loudly and the second would silently succeed with acknowledged
// writes gone. Kill drops the WAL without flushing; the segments stay on
// disk for the next Open to replay (or fail on again).
func (db *DB) abortOpen() {
	db.closed.Store(true)
	// Write owners stop before compaction workers: a batch mid-apply may
	// be hard-stalled on the worker's next commit (see stopWriteOwner).
	for _, p := range db.parts {
		p.stopWriteOwner()
	}
	for _, p := range db.parts {
		if p.bg.done != nil {
			p.stopWorker()
			<-p.bg.done
		}
	}
	if db.dur != nil {
		db.dur.wal.Kill()
		db.dur.dir.Close()
	}
}

// partitionIndex routes a key to its partition index: range partitioning
// splits the key-index domain evenly; hash partitioning uses an FNV hash
// (for skewed/load-imbalanced workloads, §4.1).
func (db *DB) partitionIndex(key []byte) int {
	n := uint64(len(db.parts))
	if n == 1 {
		return 0
	}
	if db.opts.RangePartitioning {
		idx := db.opts.KeyIndex(key)
		p := idx * n / db.opts.KeySpace
		if p >= n {
			p = n - 1
		}
		return int(p)
	}
	var h uint64 = 14695981039346656037
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(h % n)
}

func (db *DB) partitionOf(key []byte) *partition {
	return db.parts[db.partitionIndex(key)]
}

// Put writes key=value and returns the simulated operation latency. While
// the DB is degraded (see Health) it fails fast with ErrReadOnly.
func (db *DB) Put(key, value []byte) (time.Duration, error) {
	return db.write(intentPut, key, value, nil)
}

// write routes one client mutation to its partition; tr is nil unless the
// op is traced (PutTraced, DeleteTraced).
func (db *DB) write(op byte, key, value []byte, tr *OpTrace) (time.Duration, error) {
	if db.closed.Load() {
		return 0, ErrClosed
	}
	return db.partitionOf(key).write(op, key, value, tr)
}

// PutBatch writes every pair and returns the summed simulated latency of
// the individual writes (the MSET latency model: one batch is billed what
// its ops would have cost serially). The pairs are enqueued together, so
// a single-partition batch is applied as one owner batch — one critical
// section, one WAL group append, one view republication — which is the
// RESP pipelined-write fast path's whole point. On error the batch may be
// partially applied (each pair is an independent write, exactly as if the
// caller had looped over Put); the first error is returned after every
// enqueued intent has completed.
func (db *DB) PutBatch(pairs []KV) (time.Duration, error) {
	if db.closed.Load() {
		return 0, ErrClosed
	}
	if err := db.health.writeErr(); err != nil {
		return 0, err
	}
	if len(pairs) == 0 {
		return 0, nil
	}
	var total time.Duration
	intents := make([]*writeIntent, 0, len(pairs))
	parts := make([]*partition, 0, len(pairs))
	var firstErr error
	for _, kv := range pairs {
		p := db.partitionOf(kv.Key)
		it := getIntent()
		it.op, it.key, it.value = intentPut, kv.Key, kv.Value
		if err := p.wq.enqueue(it); err != nil {
			putIntent(it)
			firstErr = err
			break
		}
		intents = append(intents, it)
		parts = append(parts, p)
	}
	// Wait out every enqueued intent even after an error: the owner still
	// holds references to their buffers until the done signals.
	for i, it := range intents {
		<-it.done
		total += it.lat
		if it.err != nil {
			if firstErr == nil {
				firstErr = it.err
			}
		} else if err := parts[i].wal.WaitDurable(it.lsn); err != nil && firstErr == nil {
			firstErr = err
		}
		putIntent(it)
	}
	return total, firstErr
}

// Get returns the value for key, the tier that served the read, and the
// simulated latency. A missing key returns (nil, TierMiss, lat, nil).
func (db *DB) Get(key []byte) ([]byte, Tier, time.Duration, error) {
	return db.GetBuf(key, nil)
}

// GetBuf is Get with a caller-provided value buffer: the value is appended
// to buf[:0] and the resulting slice returned (it aliases buf when buf has
// capacity). Callers that reuse buf across calls make the NVM-hit read path
// allocation-free.
func (db *DB) GetBuf(key, buf []byte) ([]byte, Tier, time.Duration, error) {
	if db.closed.Load() {
		return nil, TierMiss, 0, ErrClosed
	}
	return db.partitionOf(key).get(key, buf)
}

// Delete removes key, writing a flash tombstone when needed (§6). While the
// DB is degraded it fails fast with ErrReadOnly.
func (db *DB) Delete(key []byte) (time.Duration, error) {
	return db.write(intentDel, key, nil, nil)
}

// Scan returns up to n live objects with keys ≥ start in global key order:
// a thin wrapper draining an Iterator (which see for the consistency and
// clock-ownership model). The start partition is never guessed from
// KeyIndex — every partition's cursor positions itself from its actual
// data, so non-canonical start keys (arbitrary bytes, no embedded index)
// cannot skip partitions under range partitioning.
func (db *DB) Scan(start []byte, n int) ([]KV, time.Duration, error) {
	if n <= 0 {
		return nil, 0, nil
	}
	it := db.NewIterator(start, n)
	out := make([]KV, 0, n)
	for it.Valid() && len(out) < n {
		out = append(out, KV{
			Key:   append([]byte(nil), it.Key()...),
			Value: append([]byte(nil), it.Value()...),
		})
		it.Next()
	}
	err := it.Close()
	if err != nil {
		return nil, 0, err
	}
	return out, it.Latency(), nil
}

// Stats aggregates all partitions' counters plus live object counts and
// the current background-compaction backlog. Taking stats drains the
// lock-free read path's sharded counters and popularity touches into each
// partition, so the returned figures include every completed GET.
func (db *DB) Stats() Stats {
	var s Stats
	var wbHist [16]int64
	for _, p := range db.parts {
		p.mu.Lock()
		p.syncClockLocked()
		p.drainReadsLocked()
		p.casMaxVclock(p.clk.Now())
		ps := p.stats
		nvm, flash := p.objectCounts()
		ps.NVMObjects, ps.FlashObjects = nvm, flash
		ps.CompactionBacklog = 0
		if p.bg.running {
			ps.CompactionBacklog++
		}
		if p.bg.demotePending {
			ps.CompactionBacklog++
		}
		if p.bg.promotePending {
			ps.CompactionBacklog++
		}
		ps.WriteQueueDepth = p.wq.depth()
		ps.ProducerParks = p.wq.parks.Load()
		for i, c := range p.wbHist {
			wbHist[i] += c
		}
		p.mu.Unlock()
		s.add(ps)
	}
	s.WriteBatchP50 = histPercentile(wbHist[:], 50)
	s.WriteBatchP99 = histPercentile(wbHist[:], 99)
	return s
}

// histPercentile returns the representative value (1 << (i-1), matching
// the WAL's group-commit BatchP50 convention) of the bucket holding the
// pct-th percentile of a bits.Len-bucketed histogram.
func histPercentile(hist []int64, pct int64) int64 {
	var total int64
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	var cum int64
	for i, c := range hist {
		cum += c
		if cum*100 >= total*pct {
			if i == 0 {
				return 0
			}
			return 1 << (i - 1)
		}
	}
	return 0
}

// ResetStats zeroes all partition counters (between warm-up and
// measurement).
func (db *DB) ResetStats() {
	for _, p := range db.parts {
		p.mu.Lock()
		p.syncClockLocked()
		p.drainReadsLocked() // flush, then zero: pending reads don't leak into the next phase
		p.casMaxVclock(p.clk.Now())
		p.stats = Stats{}
		p.wbHist = [16]int64{}
		p.wq.parks.Store(0)
		p.mu.Unlock()
	}
}

// Elapsed returns the simulation's wall clock: the maximum published
// frontier across partitions — each partition's worker clock joined with
// the fold-backs of its completed lock-free reads. In-flight background
// compactions are not included — their effect on foreground time is
// already modeled through device/CPU contention and write admission (a
// workload that outruns compaction stalls on admission, slowing the worker
// clocks themselves).
func (db *DB) Elapsed() time.Duration {
	var maxNs int64
	for _, p := range db.parts {
		if t := p.frontier(); t > maxNs {
			maxNs = t
		}
	}
	return time.Duration(maxNs)
}

// DrainCompactions blocks (in host time) until every partition's
// background compaction worker is idle with nothing queued. Under
// CompactionSync it returns immediately. Tests and harnesses use it to
// reach a settled state; it is safe to call after Close.
func (db *DB) DrainCompactions() {
	for _, p := range db.parts {
		p.mu.Lock()
		p.drainLocked()
		p.mu.Unlock()
	}
}

// AdvanceAll moves every partition clock to at least the global maximum,
// including the completion of all in-flight background compactions (async
// workers are drained first), and matures their reclaimed space. Harnesses
// call this between phases so measurement starts from a settled state with
// a common time origin.
func (db *DB) AdvanceAll() {
	db.DrainCompactions()
	now := int64(db.Elapsed())
	for _, p := range db.parts {
		p.mu.Lock()
		if p.compEndAt > now {
			now = p.compEndAt
		}
		p.mu.Unlock()
	}
	for _, p := range db.parts {
		p.mu.Lock()
		p.clk.AdvanceTo(now)
		p.casMaxVclock(now)
		p.matureCredit(now)
		p.mu.Unlock()
	}
}

// PartitionOf returns the index of the partition serving key. Harnesses
// use it to route operations to per-partition streams (for the parallel
// driver) or to drive partitions in virtual-time order (discrete-event
// style, which keeps shared-resource queueing causally consistent).
func (db *DB) PartitionOf(key []byte) int {
	return db.partitionIndex(key)
}

// PartitionClock returns partition i's current published frontier (worker
// clock joined with completed lock-free reads).
func (db *DB) PartitionClock(i int) time.Duration {
	return time.Duration(db.parts[i].frontier())
}

// PartitionClocks returns each partition's published frontier and
// compaction horizon (diagnostics: load imbalance, compaction overhang).
func (db *DB) PartitionClocks() (clocks, compEnds []time.Duration) {
	for _, p := range db.parts {
		clocks = append(clocks, time.Duration(p.frontier()))
		p.mu.Lock()
		compEnds = append(compEnds, time.Duration(p.compEndAt))
		p.mu.Unlock()
	}
	return clocks, compEnds
}

// PinThresholds reports each partition's current (possibly auto-tuned)
// pinning threshold.
func (db *DB) PinThresholds() []float64 {
	out := make([]float64, 0, len(db.parts))
	for _, p := range db.parts {
		p.mu.Lock()
		out = append(out, p.pinThreshold)
		p.mu.Unlock()
	}
	return out
}

// ClockDistribution sums the tracker clock-value histograms across
// partitions (Fig 5).
func (db *DB) ClockDistribution() [tracker.MaxClock + 1]int {
	var d [tracker.MaxClock + 1]int
	for _, p := range db.parts {
		p.mu.Lock()
		pd := p.trk.Distribution()
		p.mu.Unlock()
		for i, n := range pd {
			d[i] += n
		}
	}
	return d
}

// NVMUsage returns the DB's current NVM consumption in bytes and its
// budget.
func (db *DB) NVMUsage() (used, budget int64) {
	for _, p := range db.parts {
		p.mu.Lock()
		used += p.usage()
		p.mu.Unlock()
	}
	return used, db.opts.NVMBudget
}

// Partitions returns the partition count.
func (db *DB) Partitions() int { return len(db.parts) }

// Options returns the effective (defaulted) options.
func (db *DB) Options() Options { return db.opts }

// Close marks the DB closed and stops the background compaction workers
// (async mode): each worker finishes the merge round it is in — a round
// always commits or never started, so no half-applied state is left — then
// exits; Close returns once all have. On an in-memory DB there is nothing
// to flush — all state is already "durable" on the simulated devices. On a
// durable DB (Options.DataDir) Close then flushes and fsyncs the WAL,
// checkpoints the slab files, and releases the data directory's lock, so
// a clean shutdown reopens with an empty WAL tail. Either way, after
// Close every operation fails with ErrClosed, new iterators are born
// failed, and open iterators fail on their next positioning call (their
// Close still releases pins normally). Stats, Elapsed, and the other
// read-only accessors keep working, so a shutting-down server can still
// report final counters. Close is idempotent.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	// The scrubber stops first: it pins reclamation epochs and takes
	// partition locks, and must not race the teardown below.
	db.stopScrubber()
	// Write owners stop first: each fails its pending intents with
	// ErrClosed (no enqueuer is left parked or waiting forever) and must
	// outlive-stop the compaction worker its in-flight batch may be
	// hard-stalled on. Producers already past their apply and blocked in
	// WaitDurable resolve when closeDurable's final WAL drain fsyncs.
	for _, p := range db.parts {
		p.stopWriteOwner()
	}
	for _, p := range db.parts {
		if p.bg.done != nil {
			p.stopWorker()
		}
	}
	for _, p := range db.parts {
		if p.bg.done != nil {
			<-p.bg.done
		}
	}
	if db.dur != nil {
		return db.closeDurable()
	}
	return nil
}
