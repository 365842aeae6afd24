// Package prismdb is a key-value store for two-tier NVMe storage, a Go
// reproduction of "Efficient Compactions Between Storage Tiers with
// PrismDB" (Raina, Lu, Cidon, Freedman — ASPLOS 2023).
//
// PrismDB keeps hot objects in slab files on a fast NVM tier (fast random
// writes, in-place updates) and cold objects in a sorted log of SST files
// on a cheap dense-flash tier (large sequential writes). A clock-based
// tracker estimates object popularity, a mapper enforces a pinning
// threshold over the tracker's clock-value distribution, and the
// multi-tiered storage compaction (MSC) metric — benefit (coldness demoted)
// over cost (flash I/O per migrated byte) — selects which key ranges to
// compact between tiers. Under read-heavy workloads, read-triggered
// compactions promote hot flash objects back to NVM.
//
// The storage tiers are simulated NVMe devices (package simdev) with the
// latency, bandwidth, endurance, and cost parameters of the paper's Intel
// Optane P5800X and Intel 660p QLC drives; all engine time runs on virtual
// clocks, so throughput and latency results are reproducible and fast to
// generate while preserving every queueing and contention effect the paper
// depends on.
//
// Quickstart:
//
//	cfg := prismdb.RecommendedConfig(prismdb.TierSpec{
//		TotalBytes:  1 << 30, // 1 GiB database
//		NVMFraction: 0.11,    // ~10% NVM, 90% QLC — the paper's het10
//	})
//	db, err := prismdb.Open(cfg)
//	...
//	db.Put([]byte("user42"), []byte("v1"))
//	v, tier, lat, err := db.Get([]byte("user42"))
//
// # Performance
//
// The foreground read path is allocation-free and sublinear. Each
// partition's manifest publishes its live SST file set as an immutable
// copy-on-write snapshot behind an atomic pointer, refcounted once per
// snapshot: a Get acquires the snapshot with two atomic operations, no
// lock, and no per-table refcount traffic, and the disjoint sorted tables
// are probed with a single binary search instead of a linear overlap scan.
// NVM slab reads land in per-partition recycled slot buffers; GetBuf lets
// the caller supply the value buffer, making an NVM- or page-cache-hit
// read perform zero heap allocations — with no lock taken at all (see the
// Concurrency section); testing.AllocsPerRun guards in internal/core pin
// this at 0 allocs/op, including after concurrent churn. Get is GetBuf
// with a nil buffer: one allocation for the returned value.
//
// Compaction I/O moves no byte twice and allocates little. An SST is built
// in one buffer (data, index, filter, footer) sized to the merge's
// remaining input, and Finish hands that buffer to the simulated flash,
// which keeps it as the file's storage (simdev.Device.WriteFile) instead
// of copying it into zero-filled extents; the manifest is rewritten the
// same way. A merge reads its demoting records and input tables into read
// arenas reused across rounds, so the records it merges are views with no
// per-block buffers; promoted keys are cloned into the B-tree because the
// next round overwrites the arenas. A DB caches one idle set of arenas
// for all its partitions, so partitions between compactions pin no read
// buffers. Every simulated device charge keeps its size and order, so
// virtual-time results are unchanged. Guards: AllocsPerRun pins a
// warm-arena ReadAll at 0 allocs, and a bench test bounds a DefaultScale
// Table 2 prismdb-het run at 2.28 host bytes allocated per flash byte
// written (7.36 before this design).
//
// Partitions are shared-nothing, so harnesses can drive them in parallel:
// the bench package's parallel driver runs one worker goroutine per
// partition over sharded op streams (routed via PartitionOf) and merges
// per-worker latency histograms at the end. Per-partition virtual-time
// causality is exact; cross-partition device and CPU queueing interleaves
// within a small bounded time window (the simulated devices backfill idle
// lane time for slightly out-of-order arrivals, so simulated results stay
// within a few percent of the serial lockstep driver's). Use the serial
// driver (the default) for bit-reproducible virtual-time experiments and
// the parallel driver (`prismbench -parallel`, or Setup.ParallelDriver)
// for wall-clock throughput.
//
// To reproduce the benchmark numbers: `make bench` (or
// `go test -run '^$' -bench . -benchmem ./bench/...`) runs the harness
// benchmarks, including BenchmarkYCSBBSerial/BenchmarkYCSBBParallel and
// BenchmarkYCSBESerial/BenchmarkYCSBEParallel — the YCSB-B read-heavy and
// YCSB-E scan-heavy mixes on 8 partitions through each driver — and
// records the results in BENCH_<date>.json for the repo's perf
// trajectory. BenchmarkContendedGets (and the serving-side
// BenchmarkServerContendedGets) track the contended-read rows below;
// `make bench-smoke` runs one fast iteration of each.
//
// # Concurrency
//
// The paper's engine is shared-nothing with one thread per partition, so it
// serializes everything behind the partition lock. This implementation
// serves a goroutine-per-connection front end, where a hot partition would
// turn that lock into a convoy around every ~µs read — so the point-read
// path is lock-free:
//
//   - Get and GetBuf (and therefore MGET on the server) never take the
//     partition lock. Each partition publishes an immutable read view
//     behind an atomic pointer: a copy-on-write B-tree root (package btree
//     path-copies every insert and delete, so a loaded root is a frozen
//     index) paired with the refcounted manifest snapshot of the flash file
//     set. A reader acquires the view with two atomics, resolves the key
//     against the frozen index or the snapshot's tables, and releases it.
//
//   - Publication rule: every mutation that changes what a reader could
//     observe structurally — a B-tree insert/delete, a manifest change, a
//     compaction commit chunk — republishes the view under the partition
//     lock before the operation returns, so a GET issued after a PUT's
//     reply always observes that PUT (read-your-writes). Within a commit
//     the manifest always installs before B-tree entries drop, so any
//     published pairing finds a demoted key on at least one side, newest
//     version winning. In-place slab updates do not republish: readers
//     pick the new bytes straight off the (internally synchronized) slab
//     file.
//
//   - NVM slot reads are validated, not pinned: a reader trusts a slot
//     only if the decoded record's key equals the requested key. A slot
//     freed, recycled, or mid-move under a stale view fails validation;
//     the reader retries against the current view and, after a few
//     failures, falls back to the locked path (churn that hot is already
//     serializing on the writer side). Scans and both compaction modes
//     keep their existing locking.
//
//   - Writes are BATCHED PER PARTITION. An uncontended Put or Delete —
//     intent ring empty, lock free — applies directly as a batch of one,
//     folding read state first, as every locked operation does. Under
//     contention the op frames
//     a write intent into the partition's bounded lock-free MPSC ring
//     (Vyukov-style, 1024 slots; a producer that finds it full parks on a
//     condvar rather than dropping — writes are lossless) and waits for
//     the owner goroutine's completion signal. The owner drains up to 128
//     intents at a time and applies the whole batch as ONE critical
//     section: one lock acquisition, one B-tree spine copy (same-epoch
//     nodes mutate in place between snapshots), one WAL group append
//     carrying every record (one fsync under group commit), and one
//     read-view republication — so N concurrent writers cost ~1/N of the
//     per-operation locking, logging, and publication work. Ack semantics
//     are unchanged: the caller unblocks only after its own op is applied
//     (and durable, per Options.WALSync), each op is charged its own
//     virtual-time interval on the partition clock exactly as if applied
//     serially, and the view republishes before any ack — read-your-
//     writes holds. A serial caller always takes the direct path, so its
//     virtual time is a deterministic function of its op stream (the
//     serial benches reproduce bit for bit). PutBatch (the server's MSET
//     and pipelined-SET fast path) hands a whole group of pairs to the
//     queues in one call.
//     Stats reports WriteBatches, batch-size percentiles, queue depth,
//     and ProducerParks; the server's INFO writes section mirrors them.
//
//   - Virtual-clock semantics for off-lock reads: each GET runs a private
//     clock seeded from the partition's published frontier (an atomic
//     max of the worker clock and every completed read's end time),
//     charges its CPU and device time there, and folds the end time back
//     with one atomic max. Serially that reproduces the locked path's
//     sequencing exactly — each op begins where the previous one ended —
//     while concurrent GETs overlap in virtual time and queue only on the
//     simulated device channels, as real concurrent requests would.
//
//   - Read stats (Gets, tier counters, BloomFalsePositives) accumulate in
//     sharded atomic counters, and popularity touches in a bounded
//     lock-free ring (512 entries; a full ring drops touches rather than
//     delaying a read). Whoever next takes the partition lock — any write,
//     a stats call, or a reader's periodic non-blocking TryLock (every 16
//     reads) — drains both into the guarded stats, tracker, buckets, and
//     read-trigger machine. Popularity and trigger staleness is therefore
//     bounded by roughly one drain cadence per reader plus one ring, and
//     collapses to near zero under any write traffic.
//
// # Iterators
//
// Scans are streamed, not materialized: NewIterator returns the paper's
// two-level iterator (§6) — per partition, a cursor over the NVM B-tree
// index merged with block-streaming cursors over the flash SST log, NVM
// versions shadowing flash on ties and tombstones annihilating at the
// merge point — lifted to the DB level with a k-way heap merge across
// partitions, identical under range and hash partitioning. Scan is a thin
// wrapper that drains an iterator into a []KV.
//
// Consistency model: creating an iterator pins, per partition, the current
// manifest snapshot (the flash file set, refcounted so compactions cannot
// delete SSTs mid-scan) and a slab epoch (NVM slots freed by concurrent
// deletes or compaction demotions stay readable and unrecycled, and
// in-place updates go copy-on-write, until the iterator closes). The
// iterator therefore observes each key exactly once with its value as of
// creation, across concurrent puts, deletes, and compactions; partitions
// pin sequentially at creation, so the consistency point is per-partition,
// as usual for per-shard snapshots. A limitHint-bounded iterator (what
// Scan uses) caps its per-partition snapshot work at the hint and refills
// from the live index if drained past it — results are never truncated,
// but keys inserted after creation may then appear past the hint.
//
// Clock ownership: a scan charges every device read and CPU cost — across
// however many partitions its merge reads — to a private clock seeded
// from the issuing partition (the partition owning the start key), folded
// back into that partition's worker clock at Close. Foreign partitions'
// clocks never advance on behalf of someone else's scan, which is what
// makes scan-heavy workloads sound under the parallel one-worker-per-
// partition driver: per-partition virtual-time causality stays exact, and
// serial vs parallel YCSB-E throughput agrees within a few percent. A warm
// Iterator.Next is zero-allocation on the NVM path (keys alias the B-tree
// snapshot, values land in a reused buffer), pinned by a
// testing.AllocsPerRun guard like the read path's.
//
// # Compaction
//
// Compactions — the demotion merges that move cold objects from NVM to
// flash when usage crosses the high watermark, and the read-triggered
// promotion merges that bring hot flash objects back — run in one of two
// execution modes (Options.CompactionMode):
//
// CompactionAsync (default): each partition owns a background worker. The
// trigger (watermark crossing, read-trigger state machine) enqueues a job
// and returns, so a foreground SET never pays a multi-SST merge in
// wall-clock time. The worker splits every merge round into prepare
// (classify and read the demoting records under the partition lock, pin a
// manifest snapshot and a slab reclamation epoch), execute (read the
// overlapping SSTs, merge, and write the output SSTs with the lock
// released — foreground gets/puts/scans proceed concurrently), and commit
// (re-take the lock and reconcile: a key overwritten or deleted while the
// merge ran keeps its newer foreground version — the pinned epoch forces
// such writes copy-on-write, so an unchanged slot location proves an
// unchanged record — and everything else flips index/bucket/tracker/
// manifest state exactly as an inline merge would; skipped keys count in
// Stats.CommitConflicts). Writers whose space-admission credit runs dry
// while reclaim is still inside an uncommitted merge block until the next
// commit (Stats.CompactionHardStalls), so writes can never outrun the
// worker unboundedly.
//
// CompactionSync: the whole merge runs inline under the partition lock at
// the trigger point. Virtual-time results are bit-reproducible, which the
// serial bench drivers and deterministic tests rely on; the cost is that
// one unlucky foreground write absorbs the merge's wall-clock time and
// every other client on the partition queues behind it.
//
// Both modes share the same virtual-time model: compaction I/O runs on a
// background-priority clock serialized per partition (a new job starts no
// earlier than the previous one's virtual completion), and each round's
// reclaimed space only becomes admissible when the round's virtual I/O
// completes — writes that outrun compaction stall (§4.2). Knobs that
// matter: HighWatermark/LowWatermark set the trigger point and the
// per-job demotion target (their gap bounds how much one job does),
// PinningThreshold and TrackerCapacity decide what demotes at all,
// RangeFiles/PowerK/Policy shape range selection, and Promotions plus
// ReadTrigger govern the promotion side. DrainCompactions (and
// AdvanceAll, which calls it) waits for background workers to go idle —
// call it before asserting on Stats or NVM usage in tests and harness
// phase boundaries.
//
// # Durability
//
// By default the database is a simulation: file bytes live in memory and
// vanish with the process, which keeps tests and experiments deterministic.
// Setting Options.DataDir turns on the real-file backend (internal/storage)
// without changing any virtual-time behavior: the simulated devices keep
// modeling latency and queueing exactly as before, but every slab and SST
// byte is delegated to a real file under the data directory, and the engine
// adds the three classic pieces of crash safety on top:
//
//   - A group-commit write-ahead log (wal/). Writers frame put/del records
//     into a buffer under a short lock; a single flusher turns whatever
//     accumulated into one write and one fdatasync, so concurrent writers
//     share fsyncs instead of paying one each. Options.WALSync picks the
//     acknowledgement contract: SyncEvery (default) acks only after the
//     record's fsync — kill -9 loses nothing acknowledged; SyncGroup acks
//     immediately and fsyncs every WALFsyncEvery records or WALFsyncInterval
//     — a crash loses at most that window; SyncNone leaves durability to the
//     OS (a process crash still loses nothing, since records reach the page
//     cache promptly; only power loss is exposed).
//
//   - A journaled manifest (MANIFEST-NNNNNN + CURRENT). Each compaction
//     commit appends one fsynced add/remove edit, so commits are
//     crash-atomic: after a crash the journal contains the whole edit or
//     none of it. The journal compacts into a fresh snapshot file once it
//     grows, with an atomic rename swinging CURRENT.
//
//   - Recovery on Open. The manifest journal is replayed (a torn final edit
//     is dropped — it was never acknowledged), SSTs not in the journal's
//     live set are deleted as orphans of uncommitted compactions, slab and
//     SST files are re-adopted by the devices, and the WAL tail is replayed
//     through the ordinary write paths — tolerating a torn final record,
//     but failing loudly on checksum corruption anywhere else. Replay is
//     idempotent because slab writes land before their WAL records: the
//     recovered state is always at least as new as the log.
//
// There is deliberately no memtable flush: a checkpoint is just "fsync the
// slab files", which the WAL triggers at each segment rotation before
// pruning the covered segments, bounding both log size and recovery time.
// A LOCK file (flock) excludes concurrent opens of one data directory;
// Close flushes and fsyncs the WAL, checkpoints, prunes, and releases the
// lock, so a clean reopen replays nothing. PersistenceStats (and the
// server's INFO persistence section) reports WAL bytes/fsyncs, group-commit
// batch size, checkpoint counts, and what recovery found. The
// fault-injection hooks (Options.Faults, FaultInjector) can fail, truncate,
// or tear the Nth I/O to exercise these paths deterministically.
//
// # Robustness
//
// A durable DB tracks its failure-domain state in a sticky three-state
// machine — Healthy → Degraded → Failed — exposed by Health (and the
// server's HEALTH command and INFO health section):
//
//   - Degraded (read-only): the first sticky storage error — a WAL append
//     or fsync failure, a manifest journal write failure, a checkpoint
//     fsync failure, ENOSPC, or a declared I/O stall — makes further write
//     acknowledgements promises the storage can't keep, so every mutation
//     from that point fails fast with ErrReadOnly (the server answers
//     -READONLY) while the lock-free read path keeps serving from the
//     published views. Nothing is ever acknowledged after a failed fsync:
//     in-flight waiters are woken with the error, queued write intents
//     fail before touching state, and parked producers are released.
//     Background compactions stand down. The state is sticky until the
//     process reopens the data directory — recovery is a reopen (all
//     acknowledged writes are on disk or in the WAL), not an in-place
//     retry.
//
//   - Failed: the background scrubber (Options.ScrubInterval) has proven
//     unrecoverable data loss — an NVM slab slot failed its stored CRC.
//     Slab slots hold the newest version of their objects, so there is no
//     redundant copy and a reopen cannot restore them; the state says so.
//     A rotted SST block, by contrast, only quarantines its table
//     (journaled out of the manifest, file preserved for post-mortem) and
//     reads fall through to other tiers.
//
// An I/O stall watchdog (Options.IOStallDeadline) covers the failure mode
// errors never report: a write that simply never returns. The WAL flusher
// heartbeats around every segment write, fsync, and checkpoint; when an
// I/O exceeds the deadline the watchdog declares the log stalled, fails
// all durability waiters with a typed error (ErrIOStalled), and degrades
// the DB — bounded unavailability instead of an unbounded hang.
//
// The fault-injection hooks exercise all of this deterministically:
// FaultENOSPC simulates a full disk, FaultInjector.ArmStall wedges one
// I/O for a chosen duration, and ArmScoped pins a fault to one failure
// domain (wal, journal, slab, sst). See the README's "Failure modes &
// degraded operation" matrix for the full fault → state → client-visible
// behavior table.
//
// # Serving
//
// The repo ships a network front end so the engine can serve real traffic:
// cmd/prismserver exposes a RESP2-subset TCP protocol (GET, SET, DEL, MGET,
// SCAN, PING, INFO — any Redis client or plain telnet works) over a
// RecommendedConfig database, and cmd/prismload is a matching YCSB-mix
// load generator with explicit pipelining and open-/closed-loop modes.
//
// The server runs one goroutine per connection over the shared-nothing
// partitions and keeps the wire path as lean as the engine's read path:
// commands are parsed from a per-connection arena, reads ride the GetBuf
// zero-allocation path through a per-connection scratch buffer, and
// replies accumulate in the connection's write buffer, flushed only when
// the parser would block on the socket — a pipelined batch of K commands
// costs one read, K engine calls, and one write. INFO reports engine
// Stats, tier hit ratios, and per-op latency distributions in both
// wall-clock and simulated virtual time.
//
// Shutdown is deterministic: Close marks the database closed, after which
// every operation returns ErrClosed and open iterators fail on their next
// positioning call — the server drains connections first, then closes the
// DB, so stragglers get a clean error instead of racing teardown. See the
// README for server and load-generator usage.
//
// # Observability
//
// The telemetry layer (internal/obs) is always on: every DB carries a
// lock-free metrics registry whose hot-path instruments — padded atomic
// counters, gauges, and log-bucketed histograms — cost a few atomic adds
// per operation and zero heap allocations (AllocsPerRun guards pin the
// instrumented read, write, and server op loops at 0 allocs/op). The
// engine records WAL fsync latency and group-commit batch size, write-path
// batch size / queue depth / producer parks, compaction round duration,
// read-view retries, and iterator epoch pins; the server adds live per-op
// wall and virtual latency, reply flush sizes, and command/error/connection
// counters.
//
// Share one registry across the stack by passing the same MetricsRegistry
// as Options.Metrics and server Config.Metrics (cmd/prismserver does this);
// nil fields create private registries, so instrumentation never turns
// off. Exposition: NewMetricsMux serves Prometheus text-format /metrics,
// the JSON event tail at /events, and net/http/pprof under /debug/pprof/ —
// `prismserver -metrics-addr :9090` mounts it. The server's INFO sections
// render from the same instruments, so INFO and /metrics can never
// disagree.
//
// Structured events ride an EventLog (Options.Events / Config.Events): a
// bounded ring of pre-rendered JSON lines recording compaction rounds,
// checkpoints, WAL rotations, recovery outcomes, and write stalls —
// surfaced by INFO events and /events.
//
// Per-op tracing samples roughly one in Config.TraceSample commands (64 by
// default) through the op's stage pipeline — parse, dispatch, queue wait,
// apply, WAL append, fsync wait, reply flush — via PutTraced/DeleteTraced
// and an OpTrace. The slowest sampled ops are retained in a ring served by
// the server's SLOWLOG GET|LEN|RESET command (Redis-shaped entries with a
// stage breakdown) and the most recent by TRACE <n>.
package prismdb

import (
	"net/http"
	"time"

	"github.com/prismdb/prismdb/internal/core"
	"github.com/prismdb/prismdb/internal/msc"
	"github.com/prismdb/prismdb/internal/obs"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/storage"
	"github.com/prismdb/prismdb/internal/tracker"
)

// Re-exported option and result types.
type (
	// Options configure a DB; see core.Options for field semantics.
	Options = core.Options
	// Stats are cumulative engine counters.
	Stats = core.Stats
	// Tier identifies the level of the storage hierarchy that served a
	// read: DRAM (page cache), NVM, flash, or a miss.
	Tier = core.Tier
	// KV is a scan result element.
	KV = core.KV
	// Iterator streams live objects in global key order with snapshot
	// consistency; see the package docs' Iterators section.
	Iterator = core.Iterator
	// CPUCosts is the engine's CPU cost model.
	CPUCosts = core.CPUCosts
	// CompactionMode selects background (async) or inline (sync)
	// compaction execution; see the package docs' Compaction section.
	CompactionMode = core.CompactionMode
	// ReadTriggerOptions configure read-triggered compactions.
	ReadTriggerOptions = core.ReadTriggerOptions
	// Device is a simulated NVMe device.
	Device = simdev.Device
	// DeviceParams describe a simulated device.
	DeviceParams = simdev.Params
	// PageCache models the OS page cache.
	PageCache = simdev.PageCache
	// CompactionPolicy selects MSC scoring (approx, precise, random).
	CompactionPolicy = msc.Policy
	// SyncMode picks the WAL's durability-vs-latency contract; see the
	// package docs' Durability section.
	SyncMode = storage.SyncMode
	// PersistenceStats reports the durability layer's counters (WAL
	// volume, fsyncs, group-commit batch size, recovery findings).
	PersistenceStats = core.PersistenceStats
	// FaultInjector deterministically fails, short-writes, or tears the
	// Nth file I/O of a durable DB (Options.Faults) — the hook behind the
	// crash-recovery tests.
	FaultInjector = storage.FaultInjector
	// FaultMode selects what an armed FaultInjector does when it fires.
	FaultMode = storage.FaultMode
	// FaultScope pins an armed fault to one failure domain of the data
	// directory (wal, journal, slab, sst); the zero value matches any I/O.
	FaultScope = storage.FaultScope
	// Health is a point-in-time snapshot of a DB's failure-domain state;
	// see the package docs' Robustness section.
	Health = core.Health
	// HealthState is the sticky Healthy → Degraded → Failed machine's
	// position.
	HealthState = core.HealthState
	// MetricsRegistry is the lock-free metrics registry behind /metrics
	// and INFO; see the package docs' Observability section. Pass one
	// instance as Options.Metrics and the server Config's Metrics to
	// expose the whole stack on a single endpoint.
	MetricsRegistry = obs.Registry
	// EventLog is the bounded structured event log (JSON lines) shared
	// between the engine and the server via Options.Events.
	EventLog = obs.EventLog
	// OpTrace receives a traced write's engine-stage durations
	// (queue wait, apply, WAL append, fsync wait) from PutTraced and
	// DeleteTraced.
	OpTrace = core.OpTrace
)

// Tiers a read can be served from.
const (
	TierDRAM  = core.TierDRAM
	TierNVM   = core.TierNVM
	TierFlash = core.TierFlash
	TierMiss  = core.TierMiss
)

// Compaction policies (Fig 6).
const (
	ApproxMSC  = msc.Approx
	PreciseMSC = msc.Precise
	RandomSel  = msc.Random
)

// Compaction execution modes.
const (
	// CompactionAsync runs compactions on per-partition background
	// workers (the default).
	CompactionAsync = core.CompactionAsync
	// CompactionSync runs compactions inline under the partition lock
	// (bit-reproducible virtual time; deterministic tests and serial
	// benches).
	CompactionSync = core.CompactionSync
)

// WAL sync modes (Options.WALSync).
const (
	// SyncEvery acknowledges a write only after its WAL record is
	// fdatasync'd; group commit batches concurrent writers into one fsync.
	SyncEvery = storage.SyncEvery
	// SyncGroup acknowledges immediately and fsyncs in the background
	// every WALFsyncEvery records or WALFsyncInterval.
	SyncGroup = storage.SyncGroup
	// SyncNone never fsyncs during operation (Close still does).
	SyncNone = storage.SyncNone
)

// Fault-injection modes (FaultInjector.Arm).
const (
	// FaultError fails the I/O outright.
	FaultError = storage.FaultError
	// FaultShortWrite persists half the buffer and reports ErrInjected.
	FaultShortWrite = storage.FaultShortWrite
	// FaultTornWrite persists half the buffer, reports success, and then
	// fails all subsequent I/O — a power cut mid-write.
	FaultTornWrite = storage.FaultTornWrite
	// FaultENOSPC fails the I/O with an error satisfying
	// errors.Is(err, syscall.ENOSPC) — a full disk.
	FaultENOSPC = storage.FaultENOSPC
	// FaultStall delays the I/O by the armed duration (ArmStall), then
	// lets it succeed — a wedged device, surfaced by the stall watchdog.
	FaultStall = storage.FaultStall
)

// Fault scopes (FaultInjector.ArmScoped / ArmStall).
const (
	// ScopeAny matches every I/O.
	ScopeAny = storage.ScopeAny
	// ScopeWAL matches WAL segment I/O.
	ScopeWAL = storage.ScopeWAL
	// ScopeJournal matches manifest journal and CURRENT I/O.
	ScopeJournal = storage.ScopeJournal
	// ScopeSlab matches NVM slab file I/O.
	ScopeSlab = storage.ScopeSlab
	// ScopeSST matches flash SST I/O.
	ScopeSST = storage.ScopeSST
)

// Health states (Health.State); see the package docs' Robustness section.
const (
	// StateHealthy: full service.
	StateHealthy = core.StateHealthy
	// StateDegraded: read-only after a sticky storage error.
	StateDegraded = core.StateDegraded
	// StateFailed: read-only with scrub-proven unrecoverable NVM loss.
	StateFailed = core.StateFailed
)

// ErrInjected is returned by file operations a FaultInjector failed.
var ErrInjected = storage.ErrInjected

// ErrReadOnly is returned by every mutation issued while the DB is
// degraded; see the package docs' Robustness section. The server maps it
// to a RESP -READONLY reply.
var ErrReadOnly = core.ErrReadOnly

// ErrIOStalled is the error the I/O stall watchdog fails durability
// waiters with when a WAL write exceeds Options.IOStallDeadline.
var ErrIOStalled = storage.ErrIOStalled

// ParseSyncMode parses the -wal-sync flag spellings: "sync", "group", or
// "nosync".
func ParseSyncMode(s string) (SyncMode, error) { return storage.ParseSyncMode(s) }

// ErrClosed is returned by every operation issued after Close (and by
// iterators that outlive it).
var ErrClosed = core.ErrClosed

// Device constructors with the paper's Table-1 parameters.
var (
	// NVMDevice models an Intel Optane SSD P5800X of the given capacity.
	NVMDevice = func(capacity int64) *Device { return simdev.New(simdev.NVMParams(capacity)) }
	// QLCDevice models an Intel 660p QLC drive.
	QLCDevice = func(capacity int64) *Device { return simdev.New(simdev.QLCParams(capacity)) }
	// TLCDevice models an Intel 760p TLC drive.
	TLCDevice = func(capacity int64) *Device { return simdev.New(simdev.TLCParams(capacity)) }
	// NewPageCache models an OS page cache of the given size.
	NewPageCache = simdev.NewPageCache
)

// DB is a PrismDB instance.
type DB struct {
	inner *core.DB
}

// Open creates or recovers a database. Options.NVM and Options.Flash are
// required. Reopening with devices that already hold PrismDB state recovers
// from the slabs and manifests (slab writes are synchronous and versioned,
// so in-memory "recovery" is a scan). With Options.DataDir set, Open locks
// the data directory, replays the manifest journal and the WAL tail, and
// rebuilds the same state from real files — see the package docs'
// Durability section.
func Open(opts Options) (*DB, error) {
	inner, err := core.Open(opts)
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner}, nil
}

// TierSpec sizes a two-tier deployment.
type TierSpec struct {
	// TotalBytes is the database capacity across both tiers.
	TotalBytes int64
	// NVMFraction is the share of capacity on NVM (the paper evaluates
	// 0.05–0.5; het10 ≈ 0.11 matches TLC flash cost).
	NVMFraction float64
	// DatasetKeys sizes the tracker, key-index domain, and read-trigger
	// epochs. Defaults to TotalBytes / 1 KiB.
	DatasetKeys int
	// Partitions defaults to 8.
	Partitions int
	// DRAMBytes sizes the OS page cache (defaults to TotalBytes / 10,
	// the paper's 1:10 DRAM:storage ratio).
	DRAMBytes int64
}

// RecommendedConfig builds Options matching the paper's evaluation setup:
// NVM:flash split per the spec, tracker = 20% of keys, pinning threshold
// 0.7, approx-MSC with power-of-8 candidate selection, promotions plus
// read-triggered compactions enabled.
func RecommendedConfig(spec TierSpec) Options {
	if spec.TotalBytes <= 0 {
		spec.TotalBytes = 1 << 30
	}
	if spec.NVMFraction <= 0 || spec.NVMFraction >= 1 {
		spec.NVMFraction = 0.11
	}
	if spec.DatasetKeys <= 0 {
		spec.DatasetKeys = int(spec.TotalBytes / 1024)
	}
	if spec.Partitions <= 0 {
		spec.Partitions = 8
	}
	if spec.DRAMBytes <= 0 {
		spec.DRAMBytes = spec.TotalBytes / 10
	}
	nvmBytes := int64(float64(spec.TotalBytes) * spec.NVMFraction)
	flashBytes := spec.TotalBytes - nvmBytes
	nvmDev := nvmBytes * 4 // headroom: slab extents round up per partition and class
	if nvmDev < 8<<20 {
		nvmDev = 8 << 20
	}
	return Options{
		Partitions:       spec.Partitions,
		NVM:              NVMDevice(nvmDev),
		Flash:            QLCDevice(flashBytes * 4),
		Cache:            NewPageCache(spec.DRAMBytes),
		NVMBudget:        nvmBytes,
		TrackerCapacity:  spec.DatasetKeys / 5,
		PinningThreshold: 0.7,
		KeySpace:         uint64(spec.DatasetKeys) * 2,
		Promotions:       true,
		ReadTrigger:      core.DefaultReadTrigger(spec.DatasetKeys),
	}
}

// Put writes key=value, returning the simulated operation latency.
func (db *DB) Put(key, value []byte) (time.Duration, error) {
	return db.inner.Put(key, value)
}

// PutBatch writes a group of pairs, returning their summed simulated
// latency. All pairs enqueue onto their partitions' owner queues together, so a batch costs one critical section, one WAL group
// append, and one view republication per touched partition; the server's
// MSET and pipelined-SET fast path ride this. Pairs land in batch order
// per partition, and the call returns only after every pair is applied
// (and durable, per Options.WALSync).
func (db *DB) PutBatch(pairs []KV) (time.Duration, error) {
	return db.inner.PutBatch(pairs)
}

// Get returns the newest value for key, the tier that served the read, and
// the simulated latency. Missing keys return (nil, TierMiss, lat, nil).
func (db *DB) Get(key []byte) ([]byte, Tier, time.Duration, error) {
	return db.inner.Get(key)
}

// GetBuf is Get with a caller-provided value buffer: the value is appended
// to buf[:0] and the resulting slice returned (it aliases buf when buf has
// capacity). Reusing buf across calls makes NVM- and page-cache-hit reads
// allocation-free.
func (db *DB) GetBuf(key, buf []byte) ([]byte, Tier, time.Duration, error) {
	return db.inner.GetBuf(key, buf)
}

// Delete removes key.
func (db *DB) Delete(key []byte) (time.Duration, error) {
	return db.inner.Delete(key)
}

// Scan returns up to n live objects with keys ≥ start in global key order.
func (db *DB) Scan(start []byte, n int) ([]KV, time.Duration, error) {
	return db.inner.Scan(start, n)
}

// NewIterator returns a streaming iterator positioned at the first live
// key ≥ start (nil = minimum). limitHint, when > 0, bounds the iterator's
// per-partition snapshot work to about that many entries (pass the number
// of entries you expect to read; 0 for an unbounded, fully
// snapshot-consistent scan). Callers must Close the iterator to release
// its snapshot pins and charge the scan's virtual time to the issuing
// partition's clock.
func (db *DB) NewIterator(start []byte, limitHint int) *Iterator {
	return db.inner.NewIterator(start, limitHint)
}

// Stats returns cumulative engine counters.
func (db *DB) Stats() Stats { return db.inner.Stats() }

// ResetStats zeroes counters (e.g. after a warm-up phase).
func (db *DB) ResetStats() { db.inner.ResetStats() }

// Elapsed returns the virtual wall-clock time consumed so far.
func (db *DB) Elapsed() time.Duration { return db.inner.Elapsed() }

// AdvanceAll aligns all partition clocks to the global maximum, draining
// background compaction workers first (call between experiment phases).
func (db *DB) AdvanceAll() { db.inner.AdvanceAll() }

// DrainCompactions blocks until every partition's background compaction
// worker is idle (no-op under CompactionSync).
func (db *DB) DrainCompactions() { db.inner.DrainCompactions() }

// ClockDistribution returns the tracker's clock-value histogram (Fig 5).
func (db *DB) ClockDistribution() [tracker.MaxClock + 1]int {
	return db.inner.ClockDistribution()
}

// NVMUsage returns current NVM consumption and the configured budget.
func (db *DB) NVMUsage() (used, budget int64) { return db.inner.NVMUsage() }

// Partitions returns the partition count.
func (db *DB) Partitions() int { return db.inner.Partitions() }

// Close marks the database closed. In-memory there is nothing to flush
// (writes are synchronous); a durable DB flushes and fsyncs its WAL,
// checkpoints the slab files, prunes the log, and releases the data
// directory's lock. Afterwards every operation fails with ErrClosed and
// open iterators fail on their next positioning call, which is what lets a
// serving front end shut down deterministically. Stats and the other
// read-only accessors keep working. Idempotent.
func (db *DB) Close() error { return db.inner.Close() }

// PersistenceStats reports the durability layer's counters; Durable is
// false (and everything zero) when Options.DataDir was not set.
func (db *DB) PersistenceStats() PersistenceStats { return db.inner.PersistenceStats() }

// Health reports the DB's failure-domain state — Healthy, Degraded
// (read-only), or Failed — with the first sticky cause and when it struck;
// see the package docs' Robustness section. Callable at any time,
// including after Close.
func (db *DB) Health() Health { return db.inner.Health() }

// Registry returns the DB's metrics registry — Options.Metrics, or the
// private one Open created when it was nil. Every engine instrument
// (fsync latency, write batching, compaction rounds, view retries) records
// here; mount it with NewMetricsMux to expose /metrics.
func (db *DB) Registry() *MetricsRegistry { return db.inner.Registry() }

// Events returns the DB's structured event log (Options.Events, or the
// private one created at Open).
func (db *DB) Events() *EventLog { return db.inner.Events() }

// PutTraced is Put with stage tracing: the write's queue-wait, apply,
// WAL-append, and fsync-wait durations are stored into tr. The server's
// sampled tracing (SLOWLOG, TRACE) rides this; tr must not be shared
// across concurrent calls.
func (db *DB) PutTraced(key, value []byte, tr *OpTrace) (time.Duration, error) {
	return db.inner.PutTraced(key, value, tr)
}

// DeleteTraced is Delete with stage tracing; see PutTraced.
func (db *DB) DeleteTraced(key []byte, tr *OpTrace) (time.Duration, error) {
	return db.inner.DeleteTraced(key, tr)
}

// NewMetricsRegistry builds an empty metrics registry to share across a DB
// and a server (Options.Metrics, server Config.Metrics).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEventLog builds a structured event log retaining the last capacity
// events (<= 0 uses the default, 256).
func NewEventLog(capacity int) *EventLog { return obs.NewEventLog(capacity) }

// NewMetricsMux returns an http.Handler serving Prometheus text-format
// metrics at /metrics, the JSON event tail at /events, and net/http/pprof
// profiles under /debug/pprof/ — what `prismserver -metrics-addr` mounts.
// events may be nil.
func NewMetricsMux(reg *MetricsRegistry, events *EventLog) *http.ServeMux {
	return obs.NewMux(reg, events)
}

// DefaultReadTrigger returns the paper's read-trigger defaults scaled to a
// dataset size.
func DefaultReadTrigger(datasetKeys int) ReadTriggerOptions {
	return core.DefaultReadTrigger(datasetKeys)
}
