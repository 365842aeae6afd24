package core

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"github.com/prismdb/prismdb/internal/btree"
	"github.com/prismdb/prismdb/internal/mapper"
	"github.com/prismdb/prismdb/internal/msc"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/slab"
	"github.com/prismdb/prismdb/internal/sst"
	"github.com/prismdb/prismdb/internal/tracker"
)

// maxCompactionRounds bounds one triggered compaction to avoid livelock
// when everything is pinned or the tracker is degenerate.
const maxCompactionRounds = 24

// candRange is a candidate compaction key range: the key span of
// RangeFiles consecutive SST files (§5.2). nil bounds are ±∞.
type candRange struct {
	lo, hi []byte // [lo, hi); nil = unbounded
	tables []*sst.Table
}

// keyIdxBounds maps a candidate range to key-index space for the buckets.
func (p *partition) keyIdxBounds(r candRange) (uint64, uint64) {
	lo := uint64(0)
	hi := p.opts.KeySpace
	if r.lo != nil {
		lo = p.opts.KeyIndex(r.lo)
	}
	if r.hi != nil {
		hi = p.opts.KeyIndex(r.hi)
	}
	if hi > p.opts.KeySpace {
		hi = p.opts.KeySpace
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// buildRanges tiles the key space into candidate ranges from the current
// SST snapshot: window i spans from table i's smallest key (window 0 from
// -∞) to table i+RangeFiles's smallest key (last window to +∞).
// The returned slice aliases the partition's reusable scratch: callers
// must copy out (retainRange) anything they keep past the next call.
func (p *partition) buildRanges(snap []*sst.Table) []candRange {
	rf := p.opts.RangeFiles
	out := p.rangeBuf[:0]
	defer func() { p.rangeBuf = out }()
	if len(snap) == 0 {
		out = append(out, candRange{})
		return out
	}
	if rf > len(snap) {
		rf = len(snap)
	}
	n := len(snap) - rf + 1
	for i := 0; i < n; i++ {
		var r candRange
		if i > 0 {
			r.lo = snap[i].Smallest()
		}
		if i+rf < len(snap) {
			r.hi = snap[i+rf].Smallest()
		}
		r.tables = snap[i : i+rf]
		out = append(out, r)
	}
	return out
}

// maybeCompact triggers a demotion compaction when NVM usage crosses the
// high watermark (§4.2). Called with the partition lock held. In sync mode
// the whole merge runs inline; in async mode the trigger just flags the
// background worker and returns — the foreground op's critical section
// stays short.
func (p *partition) maybeCompact() {
	if p.usage() < int64(float64(p.nvmBudget)*p.opts.HighWatermark) {
		return
	}
	if p.opts.CompactionMode == CompactionSync {
		p.runDemotionCompaction()
		return
	}
	if !p.bg.demotePending && !p.bg.stopping {
		p.bg.demotePending = true
		p.bg.demoteTriggerNs = p.clk.Now()
		p.bg.jobCond.Signal()
	}
}

// triggerPromotion is the read-trigger machine's invocation hook: inline in
// sync mode, enqueued to the background worker in async mode. Called with
// the partition lock held.
func (p *partition) triggerPromotion() {
	if p.opts.CompactionMode == CompactionSync {
		p.runPromotionCompaction()
		return
	}
	if !p.bg.promotePending && !p.bg.stopping {
		p.bg.promotePending = true
		p.bg.promoteTriggerNs = p.clk.Now()
		p.bg.jobCond.Signal()
	}
}

// runDemotionCompaction frees NVM down to the low watermark. The job runs
// on its own clock starting at the partition's current time; its I/O
// occupies device channels (delaying foreground requests), and writes
// admitted before its completion are rate-limited through admitWrite.
func (p *partition) runDemotionCompaction() {
	compClk := simdev.NewBGClock()
	compClk.AdvanceTo(p.clk.Now())
	// The partition's single compaction thread is serial: a new job
	// cannot start before the previous one finished.
	compClk.AdvanceTo(p.compEndAt)
	start := compClk.Now()
	low := int64(float64(p.nvmBudget) * p.opts.LowWatermark)

	// If the pinned set itself exceeds the NVM budget (possible when the
	// pinning threshold is generous relative to the tier split), normal
	// rounds cannot free space; after two no-progress rounds we demote
	// regardless of popularity — space safety beats placement quality.
	noProgress := 0
	for round := 0; round < maxCompactionRounds && p.usage() > low; round++ {
		before := p.usage()
		r := p.selectRange(compClk)
		force := noProgress >= 2
		p.compactRange(compClk, r, true, p.opts.Promotions && !force, force)
		p.stats.Compactions++
		// Each range merge commits independently: its reclaimed space
		// matures at the round's completion, not the whole chain's.
		if freed := before - p.usage(); freed > 0 {
			p.compQueue = append(p.compQueue, compJob{endAt: compClk.Now(), freed: freed})
			noProgress = 0
		} else {
			noProgress++
			if force {
				break // even forced demotion freed nothing; give up
			}
		}
	}
	dur := time.Duration(compClk.Now() - start)
	p.stats.CompactionTime += dur
	if compClk.Now() > p.compEndAt {
		p.compEndAt = compClk.Now()
	}
	// The merge rewrote B-tree entries and the manifest wholesale; hand
	// lock-free readers the post-compaction pairing.
	p.publishView()
}

// selectRange picks the compaction key range per the configured policy,
// charging scoring CPU to the compaction clock (Fig 6's contrast).
func (p *partition) selectRange(compClk *simdev.Clock) candRange {
	selStart := compClk.Now()
	defer func() {
		p.stats.SelectionTime += time.Duration(compClk.Now() - selStart)
	}()
	snap := p.man.Acquire()
	defer snap.Release()
	ranges := p.buildRanges(snap.Tables())
	if len(ranges) == 1 {
		return p.retainRange(ranges[0])
	}

	if p.opts.Policy == msc.Random {
		return p.retainRange(ranges[p.rng.Intn(len(ranges))])
	}
	cand := msc.PickCandidates(len(ranges), p.opts.PowerK, p.rng)
	stats := make([]msc.RangeStats, len(cand))
	for i, ci := range cand {
		switch p.opts.Policy {
		case msc.Precise:
			stats[i] = p.preciseStats(compClk, ranges[ci])
		default:
			stats[i] = p.approxStats(compClk, ranges[ci])
		}
	}
	best, _ := msc.Best(stats)
	if best < 0 {
		best = 0
	}
	return p.retainRange(ranges[cand[best]])
}

// retainRange copies a candidate out of the snapshot's lifetime. The tables
// themselves stay alive because compactRange runs before any concurrent
// manifest change (partition-lock discipline), so holding the pointers is
// safe.
func (p *partition) retainRange(r candRange) candRange {
	tables := make([]*sst.Table, len(r.tables))
	copy(tables, r.tables)
	r.tables = tables
	return r
}

// approxStats estimates range statistics from the buckets (§6).
func (p *partition) approxStats(compClk *simdev.Clock, r candRange) msc.RangeStats {
	lo, hi := p.keyIdxBounds(r)
	nBuckets := int((hi-lo)/uint64(p.opts.BucketKeys)) + 1
	p.chargeCPU(compClk, time.Duration(nBuckets)*p.opts.CPU.ApproxPerBucket)
	s := p.bkt.Estimate(lo, hi)
	return msc.RangeStats{Tn: s.Tn, Tf: s.Tf, P: s.P(), O: s.O(), Benefit: s.Benefit()}
}

// preciseStats walks every object in the range: each NVM object costs a
// B-tree + mapper navigation, and each flash object an SST-index check
// (§5.3 — this is what made precise-MSC's compactions take 25 s).
func (p *partition) preciseStats(compClk *simdev.Clock, r candRange) msc.RangeStats {
	decider := p.pinDecider()
	var s msc.RangeStats
	var popular float64
	overlap := 0
	p.index.Range(r.lo, r.hi, func(it btree.Item) bool {
		s.Tn++
		clock, tracked := p.trk.Clock(it.Key)
		s.Benefit += p.trk.Coldness(it.Key)
		if tracked {
			popular += decider.PinProbability(clock)
		}
		for _, t := range r.tables {
			if t.MayContain(it.Key) {
				overlap++
				break
			}
		}
		return true
	})
	for _, t := range r.tables {
		s.Tf += float64(t.Count())
	}
	p.chargeCPU(compClk, time.Duration(s.Tn+s.Tf)*p.opts.CPU.PreciseScanPerObject)
	if s.Tn > 0 {
		s.P = popular / s.Tn
	}
	if s.Tf > 0 {
		s.O = float64(overlap) / s.Tf
	}
	return s
}

// compactRange merges the NVM objects of a key range with its overlapping
// SST files (§4.2, §6): unpinned NVM objects demote to flash, stale flash
// versions die, tombstones annihilate, and (when enabled) hot flash objects
// promote to NVM. forceAll ignores pinning (space-safety demotion).
// Data-structure changes apply atomically under the partition lock; I/O
// time accrues on compClk.
func (p *partition) compactRange(compClk *simdev.Clock, r candRange, allowDemote, allowPromote, forceAll bool) (demoted, promoted int) {
	cpu := p.opts.CPU
	decider := p.pinDecider()
	// Demotion compactions exist to free space: only promote into room
	// below the low watermark, or the job undoes its own work and the
	// partition thrashes between tiers. Read-triggered (promotion-only)
	// jobs may fill up to the high watermark.
	promoteWM := p.opts.HighWatermark
	if allowDemote {
		promoteWM = p.opts.LowWatermark
	}

	// Phase 1: classify NVM objects in the range.
	type nvmObj struct {
		key []byte
		loc slab.Loc
	}
	var demoteObjs []nvmObj
	pinnedKeys := map[string]bool{}
	p.index.Range(r.lo, r.hi, func(it btree.Item) bool {
		key := it.Key
		if !allowDemote {
			pinnedKeys[string(key)] = true
			return true
		}
		if !forceAll {
			clock, tracked := p.trk.Clock(key)
			if decider.ShouldPin(clock, tracked, p.rng) {
				pinnedKeys[string(key)] = true
				return true
			}
		}
		demoteObjs = append(demoteObjs, nvmObj{key, slab.Loc(it.Val)})
		return true
	})

	// Read the records being demoted from the slabs. The reads are
	// independent random NVM pages (the tiny-object pain point of §7.3),
	// so the job issues them concurrently: the round advances to the
	// completion of the slowest read, not their sum. Record bytes land in
	// the partition's reusable arena (one flat buffer) instead of two
	// allocations per record; the views are built after the arena stops
	// growing.
	type demoteRef struct {
		keyOff, keyLen, valLen int
		version                uint64
		tomb                   bool
	}
	ar := p.arenas.get()
	defer p.arenas.put(ar)
	arena := ar.rec
	refs := make([]demoteRef, 0, len(demoteObjs))
	readStart := compClk.Now()
	maxEnd := readStart
	for _, o := range demoteObjs {
		tmp := simdev.NewBGClock()
		tmp.AdvanceTo(readStart)
		rec, err := p.slabs.GetScratch(tmp, o.loc)
		if tmp.Now() > maxEnd {
			maxEnd = tmp.Now()
		}
		if err != nil {
			continue // slot raced free; skip
		}
		refs = append(refs, demoteRef{len(arena), len(rec.Key), len(rec.Value), rec.Version, rec.Tombstone})
		arena = append(arena, rec.Key...)
		arena = append(arena, rec.Value...)
	}
	ar.rec = arena
	demoteRecs := make([]sst.Record, len(refs))
	for i, rf := range refs {
		demoteRecs[i] = sst.Record{
			Key:       arena[rf.keyOff : rf.keyOff+rf.keyLen : rf.keyOff+rf.keyLen],
			Value:     arena[rf.keyOff+rf.keyLen : rf.keyOff+rf.keyLen+rf.valLen : rf.keyOff+rf.keyLen+rf.valLen],
			Version:   rf.version,
			Tombstone: rf.tomb,
		}
	}
	compClk.AdvanceTo(maxEnd)

	// Phase 2: read all overlapping SST objects (sequential flash reads).
	// The tables' data sections land in the round's flash arena and the
	// records are views into it — no per-record copies.
	flashRecs := make([]sst.Record, 0, tableRecords(r.tables))
	for _, t := range r.tables {
		p.stats.FlashBytesRead += t.Size()
		t.ReadAll(compClk, &ar.flash, func(rec sst.Record) error {
			flashRecs = append(flashRecs, rec)
			return nil
		})
	}

	// Phase 3: merge. Both inputs are sorted; NVM versions win ties.
	out := newSSTSplitter(p, compClk, &p.stats, demoteRecs, flashRecs)
	ni, fi := 0, 0
	emitFlash := func(rec sst.Record) {
		idx := p.opts.KeyIndex(rec.Key)
		if allowPromote {
			clock, tracked := p.trk.Clock(rec.Key)
			if decider.ShouldPin(clock, tracked, p.rng) && p.nvmHasRoom(rec, promoteWM) {
				if p.promoteToNVM(compClk, rec) {
					ci := p.slabs.ClassOf(len(rec.Key), len(rec.Value))
					p.spaceCredit -= int64(p.slabs.ClassSize(ci))
					p.bkt.OnPromote(idx)
					p.trk.SetLocation(rec.Key, tracker.NVM)
					promoted++
					return
				}
			}
		}
		out.add(rec)
	}
	mergedKeys := 0
	for ni < len(demoteRecs) || fi < len(flashRecs) {
		mergedKeys++
		var cmp int
		switch {
		case ni >= len(demoteRecs):
			cmp = 1
		case fi >= len(flashRecs):
			cmp = -1
		default:
			cmp = bytes.Compare(demoteRecs[ni].Key, flashRecs[fi].Key)
		}
		if cmp <= 0 {
			out.consume(demoteRecs[ni])
		}
		if cmp >= 0 {
			out.consume(flashRecs[fi])
		}
		switch {
		case cmp < 0: // NVM-only
			rec := demoteRecs[ni]
			ni++
			if rec.Tombstone {
				// No flash version: the tombstone dies here.
				p.dropNVM(compClk, rec.Key, true)
				p.stats.DroppedTombstones++
				continue
			}
			out.add(rec)
			p.demoteBookkeeping(compClk, rec)
			demoted++
		case cmp > 0: // flash-only
			rec := flashRecs[fi]
			fi++
			if pinnedKeys[string(rec.Key)] {
				// A newer pinned NVM version shadows this one.
				p.bkt.OnFlashDelete(p.opts.KeyIndex(rec.Key))
				p.stats.DroppedStale++
				continue
			}
			emitFlash(rec)
		default: // same key on both tiers: NVM is newer (§6)
			rec := demoteRecs[ni]
			ni++
			fi++
			p.stats.DroppedStale++
			if rec.Tombstone {
				p.dropNVM(compClk, rec.Key, true)
				p.bkt.OnFlashDelete(p.opts.KeyIndex(rec.Key))
				p.stats.DroppedTombstones++
				continue
			}
			out.add(rec)
			p.demoteBookkeeping(compClk, rec)
			demoted++
		}
	}
	p.chargeCPU(compClk, time.Duration(mergedKeys)*cpu.MergePerKey)
	newTables := out.finish()
	if len(newTables) > 0 || len(r.tables) > 0 {
		if err := p.man.Apply(newTables, r.tables); err != nil {
			// The journal edit could not be made durable, so the manifest
			// rolled the commit back — but this inline merge has already
			// freed the demoted records' slab slots, so the round's output
			// tables are now their only copy and they are not reachable
			// through the (unchanged) live set. Degrade: writes stop, the
			// checkpoint guard in syncSlabs keeps their WAL records in the
			// log, and the reopen that recovers from Degraded replays them
			// (the un-journaled SSTs are removed as orphans).
			if p.health != nil {
				p.health.degrade("compaction commit", err)
				p.obs.events.Emit("compaction_commit_failed",
					"partition", p.id, "err", err.Error())
				return demoted, promoted
			}
			// In-memory simulation (no health tracking): manifest
			// persistence cannot fail unless the flash device is full;
			// surface loudly in development.
			panic(fmt.Sprintf("core: manifest apply: %v", err))
		}
	}
	p.stats.Demoted += int64(demoted)
	p.stats.Promoted += int64(promoted)
	return demoted, promoted
}

// demoteBookkeeping frees the slab slot and flips all metadata after a
// record moved to flash.
func (p *partition) demoteBookkeeping(compClk *simdev.Clock, rec sst.Record) {
	p.dropNVM(compClk, rec.Key, false)
	idx := p.opts.KeyIndex(rec.Key)
	p.bkt.OnDemote(idx)
	p.trk.SetLocation(rec.Key, tracker.Flash)
}

// dropNVM removes a key's NVM presence (slot + index); forget=true also
// clears popularity state (tombstones).
func (p *partition) dropNVM(compClk *simdev.Clock, key []byte, forget bool) {
	if v, ok := p.index.Get(key); ok {
		p.slabs.FreeSlot(compClk, slab.Loc(v))
		p.index.Delete(key)
	}
	if forget {
		p.bkt.OnNVMDelete(p.opts.KeyIndex(key))
		p.trk.Forget(key)
	}
}

// nvmHasRoom checks the promotion headroom against a watermark: promotions
// are expensive — they take up space a compaction may have just freed
// (§5.3).
func (p *partition) nvmHasRoom(rec sst.Record, watermark float64) bool {
	ci := p.slabs.ClassOf(len(rec.Key), len(rec.Value))
	if ci < 0 {
		return false
	}
	slotSize := int64(p.slabs.ClassSize(ci))
	return p.usage()+slotSize < int64(float64(p.nvmBudget)*watermark)
}

// pinDecider builds the mapper's pin decider with the effective threshold
// capped so the expected pinned bytes never exceed ~80% of the NVM budget:
// with a generous threshold and a small fast tier, pinning more than NVM
// can hold would make every compaction fight the mapper for space.
func (p *partition) pinDecider() mapper.Decider {
	thr := p.pinThreshold
	// The pinned set must fit comfortably BELOW the low watermark, or
	// every compaction ends up force-demoting hot objects just to make
	// space — a demote/re-insert thrash cycle.
	capFrac := p.opts.LowWatermark - 0.15
	if capFrac < 0.3 {
		capFrac = 0.3
	}
	if n := p.trk.Len(); n > 0 {
		avg := int64(1024)
		if lo := p.slabs.LiveObjects(); lo > 0 {
			avg = p.slabs.LiveBytes() / int64(lo)
		}
		if avg > 0 {
			maxPinnable := float64(p.nvmBudget) * capFrac / float64(avg)
			if c := maxPinnable / float64(n); c < thr {
				thr = c
			}
		}
	}
	return mapper.New(thr).NewDecider(p.trk.Distribution())
}

// promoteToNVM writes a flash record into the slabs. rec is a view into a
// compaction arena that the next round overwrites, so the B-tree gets its
// own copy of the key.
func (p *partition) promoteToNVM(compClk *simdev.Clock, rec sst.Record) bool {
	loc, err := p.slabs.Put(compClk, slab.Record{
		Key: rec.Key, Value: rec.Value, Version: rec.Version, Tombstone: rec.Tombstone,
	})
	if err != nil {
		return false
	}
	p.index.Insert(bytes.Clone(rec.Key), uint64(loc))
	return true
}

// mergeArenas are a merge round's reusable read buffers: rec holds the
// demoting records' bytes and flash the input SSTs' data sections. The
// round's record views point into them, so the round owns its arenas until
// its commit finishes, and nothing may keep a view past that —
// promoteToNVM clones the key the B-tree keeps.
type mergeArenas struct {
	rec, flash []byte
}

// arenaCache keeps one idle set of merge arenas for a DB's partitions. The
// serial driver runs one round at a time, so a single set serves every
// round; background rounds of several partitions that overlap get fresh
// sets, and only the last one returned stays cached, so idle partitions
// pin no read buffers.
type arenaCache struct {
	mu   sync.Mutex
	idle *mergeArenas
}

// get hands out the idle set, emptied, or a new one.
func (c *arenaCache) get() *mergeArenas {
	c.mu.Lock()
	a := c.idle
	c.idle = nil
	c.mu.Unlock()
	if a == nil {
		return &mergeArenas{}
	}
	a.rec, a.flash = a.rec[:0], a.flash[:0]
	return a
}

// put caches a for the next round; the caller must hold no view into it.
func (c *arenaCache) put(a *mergeArenas) {
	c.mu.Lock()
	c.idle = a
	c.mu.Unlock()
}

// tableRecords returns the summed record count of tables.
func tableRecords(tables []*sst.Table) int {
	n := 0
	for _, t := range tables {
		n += t.Count()
	}
	return n
}

// sstSplitter writes merged output into SSTs of at most TargetSSTBytes.
// Write-volume counters go to stats — the partition's own Stats for inline
// (sync) compactions, a job-local Stats for background ones (the async
// worker only touches p.stats under the partition lock, at commit).
type sstSplitter struct {
	p       *partition
	compClk *simdev.Clock
	stats   *Stats
	w       *sst.Writer
	tables  []*sst.Table
	// remaining bounds the output still to come: the encoded bytes of the
	// merge inputs not yet consumed. A new writer's buffer is sized to the
	// smaller of it and TargetSSTBytes, so a merge's last table is not
	// built in (and handed to the device with) a full-size buffer.
	remaining int64
}

// newSSTSplitter starts the output of a merge whose inputs are the given
// record lists.
func newSSTSplitter(p *partition, compClk *simdev.Clock, stats *Stats, inputs ...[]sst.Record) *sstSplitter {
	s := &sstSplitter{p: p, compClk: compClk, stats: stats}
	for _, recs := range inputs {
		for _, rec := range recs {
			s.remaining += int64(rec.EncodedLen())
		}
	}
	return s
}

func (s *sstSplitter) add(rec sst.Record) {
	if s.w == nil {
		name := s.p.opts.Flash.NextFileName(fmt.Sprintf("p%d-sst", s.p.id))
		hint := s.p.opts.TargetSSTBytes
		if s.remaining < hint {
			hint = s.remaining
		}
		s.w = sst.NewWriterSize(s.p.opts.Flash, s.p.opts.Cache, name, s.p.opts.BlockSize, int(hint))
	}
	if err := s.w.Add(rec); err != nil {
		panic(fmt.Sprintf("core: sst writer: %v", err)) // merge emits sorted unique keys
	}
	if s.w.EstimatedSize() >= s.p.opts.TargetSSTBytes {
		s.cut()
	}
}

// consume marks an input record as taken by the merge, whether it is then
// added, dropped or promoted.
func (s *sstSplitter) consume(rec sst.Record) {
	s.remaining -= int64(rec.EncodedLen())
}

func (s *sstSplitter) cut() {
	if s.w == nil || s.w.Count() == 0 {
		return
	}
	t, err := s.w.Finish(s.compClk)
	if err != nil {
		panic(fmt.Sprintf("core: sst finish: %v", err))
	}
	s.stats.FlashBytesWritten += t.Size()
	s.tables = append(s.tables, t)
	s.w = nil
}

func (s *sstSplitter) finish() []*sst.Table {
	s.cut()
	return s.tables
}

// runPromotionCompaction is the invocation step of read-triggered
// compactions: pick the range with the most hot flash objects and promote.
func (p *partition) runPromotionCompaction() {
	compClk := simdev.NewBGClock()
	compClk.AdvanceTo(p.clk.Now())
	start := compClk.Now()

	compClk.AdvanceTo(p.compEndAt) // serial with the demotion job
	snap := p.man.Acquire()
	if snap.Len() == 0 {
		// Nothing on flash: nothing to promote. Checked before building
		// candidate ranges, which would be pure wasted work here.
		snap.Release()
		return
	}
	ranges := p.buildRanges(snap.Tables())
	bestIdx := pickPromotionRange(p, compClk, ranges)
	if bestIdx < 0 {
		snap.Release()
		return
	}
	r := p.retainRange(ranges[bestIdx])
	snap.Release()
	_, promoted := p.compactRange(compClk, r, false, true, false)
	p.stats.Compactions++
	p.stats.ReadTriggeredComps++
	p.stats.CompactionTime += time.Duration(compClk.Now() - start)
	if compClk.Now() > p.compEndAt {
		p.compEndAt = compClk.Now()
	}
	p.publishView()
	_ = promoted
}

// autoTune is the hill-climbing pinning-threshold tuner the paper leaves
// as future work (§7.4): measure the window's throughput, keep walking the
// threshold in the current direction while throughput improves, reverse
// otherwise. Called with the partition lock held.
func (p *partition) autoTune() {
	p.tuneOps++
	if p.tuneOps < p.opts.AutoTuneWindow {
		return
	}
	now := p.clk.Now()
	window := now - p.tuneLastT
	p.tuneOps = 0
	p.tuneLastT = now
	if window <= 0 {
		return
	}
	rate := float64(p.opts.AutoTuneWindow) / (float64(window) / 1e9)
	if p.tuneLastRate > 0 && rate < p.tuneLastRate {
		p.tuneDir = -p.tuneDir // got worse: reverse direction
	}
	p.tuneLastRate = rate
	p.pinThreshold += p.tuneDir
	if p.pinThreshold < 0.05 {
		p.pinThreshold = 0.05
		p.tuneDir = p.opts.AutoTuneStep
	}
	if p.pinThreshold > 0.95 {
		p.pinThreshold = 0.95
		p.tuneDir = -p.opts.AutoTuneStep
	}
}

// onOp advances the read-trigger state machine (§5.3). Called with the
// partition lock held, after the operation's own bookkeeping.
func (rt *readTriggerState) onOp(p *partition, isRead bool) {
	if p.opts.AutoTuneThreshold {
		p.autoTune()
	}
	o := p.opts.ReadTrigger
	if !o.Enabled {
		return
	}
	rt.opsInPhase++
	if isRead {
		rt.reads++
	} else {
		rt.writes++
	}
	switch rt.phase {
	case rtDetect:
		window := o.Epoch / 10
		if window < 100 {
			window = 100
		}
		if rt.opsInPhase < window {
			return
		}
		total := rt.reads + rt.writes
		readFrac := float64(rt.reads) / float64(total)
		if readFrac >= o.ReadHeavyFraction && p.trk.FlashFraction() >= o.MinFlashFraction {
			rt.phase = rtActive
			rt.lastRatio = rt.ratio()
			rt.resetWindow()
			p.triggerPromotion()
		} else {
			rt.resetWindow()
		}
	case rtActive:
		interval := o.Epoch / 4
		if interval < 1 {
			interval = 1
		}
		if rt.opsInPhase%interval == 0 && rt.opsInPhase < o.Epoch {
			p.triggerPromotion()
		}
		if rt.opsInPhase >= o.Epoch {
			newRatio := rt.ratio()
			if newRatio-rt.lastRatio >= o.ImproveDelta {
				rt.lastRatio = newRatio
				rt.resetWindow() // keep compacting next epoch
				p.triggerPromotion()
			} else {
				rt.phase = rtCooldown
				rt.resetWindow()
			}
		}
	case rtCooldown:
		if rt.opsInPhase >= o.Cooldown {
			rt.phase = rtDetect
			rt.resetWindow()
		}
	}
}

func (rt *readTriggerState) ratio() float64 {
	total := rt.nvmReads + rt.flashReads
	if total == 0 {
		return 0
	}
	return float64(rt.nvmReads) / float64(total)
}

func (rt *readTriggerState) resetWindow() {
	rt.opsInPhase = 0
	rt.reads, rt.writes = 0, 0
	rt.nvmReads, rt.flashReads = 0, 0
}
