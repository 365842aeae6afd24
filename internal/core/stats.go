package core

import "time"

// Tier identifies where a read was served from (Fig 2b, Fig 14a).
type Tier int

const (
	// TierDRAM means the OS page cache absorbed the read.
	TierDRAM Tier = iota
	// TierNVM means the fast device served it.
	TierNVM
	// TierFlash means the slow device served it.
	TierFlash
	// TierMiss means the key does not exist.
	TierMiss
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierDRAM:
		return "dram"
	case TierNVM:
		return "nvm"
	case TierFlash:
		return "flash"
	case TierMiss:
		return "miss"
	}
	return "unknown"
}

// Stats aggregates engine activity. All counters are cumulative since Open
// (or the last ResetStats).
type Stats struct {
	Puts    int64
	Gets    int64
	Deletes int64
	Scans   int64

	// Read sources.
	GetDRAM  int64
	GetNVM   int64
	GetFlash int64
	GetMiss  int64

	// BloomFalsePositives counts flash probes where the SST bloom filter
	// said the key might be present but the table read found nothing (or
	// only a tombstone) — the wasted block I/O a filter exists to avoid.
	// The filters target a 1% false-positive rate; a ratio far above that
	// against GetMiss+GetFlash traffic means undersized filters or a
	// pathological key mix.
	BloomFalsePositives int64

	// Write paths.
	InPlaceUpdates int64
	FreshInserts   int64
	SlabMoves      int64 // update changed size class: delete + fresh insert

	// Compaction activity.
	Compactions        int64
	ReadTriggeredComps int64
	CompactionTime     time.Duration
	SelectionTime      time.Duration // time spent scoring candidates
	Demoted            int64
	Promoted           int64
	DroppedStale       int64 // obsolete flash versions removed by merges
	DroppedTombstones  int64
	FlashBytesRead     int64 // compaction reads from flash
	FlashBytesWritten  int64 // compaction writes to flash

	// Foreground write stalls caused by NVM rate limiting (§4.2).
	WriteStalls    int64
	WriteStallTime time.Duration

	// Async-compaction activity (CompactionAsync mode; all zero under
	// CompactionSync).
	//
	// CompactionBacklog is a gauge: background jobs currently pending or
	// running across partitions at the moment Stats was taken.
	CompactionBacklog int64
	// CommitConflicts counts per-key commit skips: a key the background
	// merge demoted (or whose tombstone it annihilated) that was
	// overwritten or deleted by a foreground op while the merge ran, so
	// the commit's reconciliation left the newer foreground version alone.
	CommitConflicts int64
	// CompactionHardStalls counts foreground writes that exhausted the
	// space-admission credit with no matured reclaim available and
	// host-blocked until the background worker's next commit.
	// CompactionHardStallTime is the total host (wall-clock, not virtual)
	// time those writes spent blocked.
	CompactionHardStalls    int64
	CompactionHardStallTime time.Duration

	// Write path (writequeue.go).
	//
	// WriteBatches counts owner batch applications; ViewRepublishes counts
	// read-view publications (one per mutating batch rather than one per
	// mutating op — the batching win the write path exists for).
	// ProducerParks counts enqueuers that found the intent ring full and
	// parked. WriteQueueDepth is a gauge: intents queued across partitions
	// at the moment Stats was taken.
	// DirectWrites counts mutations applied on the uncontended direct fast
	// path — batches of one that never visited the intent ring. Counted as
	// a plain field under the partition lock (the direct path is the write
	// hot path; it must not pay shared atomic instrument traffic), and
	// folded into the prism_write_batch_ops histogram at gather time.
	WriteBatches    int64
	DirectWrites    int64
	ViewRepublishes int64
	ProducerParks   int64
	WriteQueueDepth int64
	// WriteBatchP50/P99 are representative batch sizes at those
	// percentiles, computed by DB.Stats from the merged histogram (not
	// summed in add — a percentile of percentiles would be meaningless).
	WriteBatchP50 int64
	WriteBatchP99 int64

	// Objects currently resident per tier.
	NVMObjects   int64
	FlashObjects int64
}

// add merges two stats (for per-partition aggregation).
func (s *Stats) add(o Stats) {
	s.Puts += o.Puts
	s.Gets += o.Gets
	s.Deletes += o.Deletes
	s.Scans += o.Scans
	s.GetDRAM += o.GetDRAM
	s.GetNVM += o.GetNVM
	s.GetFlash += o.GetFlash
	s.GetMiss += o.GetMiss
	s.BloomFalsePositives += o.BloomFalsePositives
	s.InPlaceUpdates += o.InPlaceUpdates
	s.FreshInserts += o.FreshInserts
	s.SlabMoves += o.SlabMoves
	s.Compactions += o.Compactions
	s.ReadTriggeredComps += o.ReadTriggeredComps
	s.CompactionTime += o.CompactionTime
	s.SelectionTime += o.SelectionTime
	s.Demoted += o.Demoted
	s.Promoted += o.Promoted
	s.DroppedStale += o.DroppedStale
	s.DroppedTombstones += o.DroppedTombstones
	s.FlashBytesRead += o.FlashBytesRead
	s.FlashBytesWritten += o.FlashBytesWritten
	s.WriteStalls += o.WriteStalls
	s.WriteStallTime += o.WriteStallTime
	s.CompactionBacklog += o.CompactionBacklog
	s.CommitConflicts += o.CommitConflicts
	s.CompactionHardStalls += o.CompactionHardStalls
	s.CompactionHardStallTime += o.CompactionHardStallTime
	s.WriteBatches += o.WriteBatches
	s.DirectWrites += o.DirectWrites
	s.ViewRepublishes += o.ViewRepublishes
	s.ProducerParks += o.ProducerParks
	s.WriteQueueDepth += o.WriteQueueDepth
	s.NVMObjects += o.NVMObjects
	s.FlashObjects += o.FlashObjects
}

// NVMReadRatio returns the fraction of successful reads served from DRAM or
// NVM rather than flash.
func (s Stats) NVMReadRatio() float64 {
	total := s.GetDRAM + s.GetNVM + s.GetFlash
	if total == 0 {
		return 0
	}
	return float64(s.GetDRAM+s.GetNVM) / float64(total)
}
