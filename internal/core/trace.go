package core

import "time"

// OpTrace receives the engine-side stage timings of one traced write. The
// server's sampled tracer passes one in through PutTraced/DeleteTraced;
// untraced ops pass nil and pay no time.Now calls beyond what the write
// path already makes.
//
// Stage semantics depend on which way partition.write took the op:
//
//   - Direct (uncontended): the op applies under the partition lock with
//     its WAL append inside the same critical section, so QueueWait is
//     zero and WALAppend is folded into Apply. FsyncWait covers the
//     off-lock durability barrier.
//   - Queued (owner-goroutine batch): QueueWait spans enqueue to the owner
//     picking the intent up, Apply is the op's own mutation inside the
//     batch's critical section, and WALAppend is the batch's one group
//     append (billed in full — group commit makes the whole append this
//     op's durability prerequisite). FsyncWait again covers WaitDurable.
type OpTrace struct {
	QueueWait time.Duration // ring wait before the owner applied the op
	Apply     time.Duration // mutation inside the critical section
	WALAppend time.Duration // WAL group append (queued path only)
	FsyncWait time.Duration // off-lock group-commit durability barrier

	// enqAt anchors the queued path's QueueWait measurement. It lives here
	// rather than in writeIntent so the untraced hot path's intent stays
	// small — every ring slot and pool entry would otherwise carry a dead
	// 24-byte timestamp.
	enqAt time.Time
}

// PutTraced is Put for sampled ops: identical semantics, with engine stage
// timings written into tr (which must be non-nil and zeroed).
func (db *DB) PutTraced(key, value []byte, tr *OpTrace) (time.Duration, error) {
	return db.write(intentPut, key, value, tr)
}

// DeleteTraced is Delete for sampled ops, mirroring PutTraced.
func (db *DB) DeleteTraced(key []byte, tr *OpTrace) (time.Duration, error) {
	return db.write(intentDel, key, nil, tr)
}
