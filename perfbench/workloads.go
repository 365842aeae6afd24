package main

import (
	"time"

	"github.com/prismdb/prismdb"
)

// workloadDef is one named traffic mix with the reason it is in the benchmark.
type workloadDef struct {
	name, why  string
	provenance func() map[string]any
	run        func(runConfig) (*outcome, error)
	wire       *wireSpec // the wire workloads' spec, which their load generator needs
}

// The wire workloads share one dataset shape: 1 KiB values and, apart from
// wire-scan, a dataset several times larger than both the NVM budget and
// the page cache, so reads are served from both tiers.
const (
	wireKeys      = 50000
	wireValueSize = 1024
	wireTotal     = 64 << 20 // RecommendedConfig capacity: NVM 11% = 7 MiB, page cache 6.4 MiB
)

var wireRead = &wireSpec{
	name: "wire-read",
	mix:  'B', theta: 0.99, keys: wireKeys,
	tiers: prismdb.TierSpec{TotalBytes: wireTotal, DatasetKeys: wireKeys},
	rate:  20000,
}

var wireWrite = &wireSpec{
	name: "wire-write",
	mix:  'A', theta: 0.8, keys: wireKeys,
	tiers:   prismdb.TierSpec{TotalBytes: wireTotal, NVMFraction: 0.3, DatasetKeys: wireKeys},
	durable: true,
	rate:    4000,
	// Several demotion rounds must complete inside the measured phase.
	minRounds: 3,
}

// wire-scan's dataset plus its inserts stay below NVM's low watermark and
// inside the page cache: the workload that fits.
var wireScan = &wireSpec{
	name: "wire-scan",
	mix:  'E', theta: 0.99, keys: 20000,
	tiers: prismdb.TierSpec{TotalBytes: 256 << 20, NVMFraction: 0.5, DatasetKeys: 20000, DRAMBytes: 64 << 20},
	rate:  2000,
	// Nothing may compact: a round means the data no longer fits.
	noRounds: true,
}

var workloads = map[string]*workloadDef{
	"paper-ycsba": {
		name: "paper-ycsba",
		why:  "Table 2 prismdb-het (11% NVM, YCSB-A, Zipf 0.8, 20k keys) via bench.Run's serial driver: the paper's tracker, MSC compaction and device model in virtual time",
		provenance: func() map[string]any {
			return map[string]any{
				"harness": "bench.Run serial lockstep", "keys": paperScale.Keys, "ops": paperScale.Ops,
				"warmup_ops":    paperScale.WarmupOps,
				"dataset_bytes": int64(paperScale.Keys) * int64(paperScale.ValueSize+64),
				"nvm_fraction":  paperSetup.NVMFraction, "page_cache_bytes": int64(paperScale.Keys) * int64(paperScale.ValueSize+64) / 10,
				"wal": "none (in-memory simulated devices)",
			}
		},
		run: runPaper,
	},
	"wire-read": {
		name:       "wire-read",
		why:        "YCSB-B Zipf 0.99 over RESP, 50k keys = 7x the NVM budget and 8x the page cache: RESP server, lock-free GET path, tier placement; open loop at 20k ops/s",
		provenance: wireRead.provenance,
		run:        wireRead.run,
		wire:       wireRead,
	},
	"wire-write": {
		name:       "wire-write",
		why:        "YCSB-A Zipf 0.8 over RESP, 50k keys = 2.6x a 30% NVM budget, durable WAL (group: fsync per 64 records or 2 ms): write queue, group commit, demotion compaction; open loop at 4k/s",
		provenance: wireWrite.provenance,
		run:        wireWrite.run,
		wire:       wireWrite,
	},
	"wire-scan": {
		name:       "wire-scan",
		why:        "YCSB-E scans of 1-100 keys over RESP, 20k keys that fit NVM and the page cache: iterator merge and SCAN replies, no compaction; open loop at 2k ops/s",
		provenance: wireScan.provenance,
		run:        wireScan.run,
		wire:       wireScan,
	},
}

// walGroupInterval and walGroupEvery are wire-write's fixed flush policy:
// acknowledge after the WAL append, fsync every 64 records or 2 ms.
const (
	walGroupEvery    = 64
	walGroupInterval = 2 * time.Millisecond
)
