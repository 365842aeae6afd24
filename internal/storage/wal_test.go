package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openTestDir opens a locked Dir over a fresh (or reused) path.
func openTestDir(t *testing.T, path string, faults *FaultInjector) *Dir {
	t.Helper()
	d, err := OpenDir(path, faults)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

type walRec struct {
	op    byte
	key   string
	value string
}

// replayAll opens the WAL of d and collects every replayed record.
func replayAll(t *testing.T, d *Dir, opts WALOptions) (*WAL, []walRec) {
	t.Helper()
	w, err := OpenWAL(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	var recs []walRec
	_, err = w.Replay(func(op byte, key, value []byte) error {
		recs = append(recs, walRec{op, string(key), string(value)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, recs
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := openTestDir(t, dir, nil)
	w, recs := replayAll(t, d, WALOptions{Mode: SyncEvery})
	if len(recs) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(recs))
	}
	if err := w.Start(nil); err != nil {
		t.Fatal(err)
	}
	var want []walRec
	for i := 0; i < 50; i++ {
		k, v := fmt.Sprintf("key%03d", i), fmt.Sprintf("value-%d", i)
		lsn, err := w.AppendPut([]byte(k), []byte(v))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
		want = append(want, walRec{OpPut, k, v})
	}
	lsn, err := w.AppendDel([]byte("key007"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	want = append(want, walRec{OpDel, "key007", ""})
	st := w.Stats()
	if st.Records != 51 || st.Bytes == 0 || st.Fsyncs == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = openTestDir(t, dir, nil)
	defer d.Close()
	w2, got := replayAll(t, d, WALOptions{})
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if st := w2.Stats(); st.Recovery.TruncatedBytes != 0 {
		t.Fatalf("clean shutdown recovered with truncation: %+v", st.Recovery)
	}
}

func TestWALEmptyDirectory(t *testing.T) {
	d := openTestDir(t, t.TempDir(), nil)
	defer d.Close()
	w, recs := replayAll(t, d, WALOptions{})
	if len(recs) != 0 {
		t.Fatalf("empty dir replayed %d records", len(recs))
	}
	if st := w.Stats(); st.Recovery.Segments != 0 || st.Recovery.Records != 0 {
		t.Fatalf("recovery stats on empty dir = %+v", st.Recovery)
	}
	if err := w.Start(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// activeSegPath returns the path of the highest-numbered WAL segment.
func activeSegPath(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, DirWAL))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("no WAL segments")
	}
	return filepath.Join(dir, DirWAL, ents[len(ents)-1].Name())
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	d := openTestDir(t, dir, nil)
	w, _ := replayAll(t, d, WALOptions{})
	if err := w.Start(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		lsn, err := w.AppendPut([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a prefix of an eleventh frame (a header
	// claiming 100 payload bytes, but only 3 present) at the segment's tail.
	seg := activeSegPath(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{100, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'x', 'y', 'z'}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d = openTestDir(t, dir, nil)
	w2, recs := replayAll(t, d, WALOptions{})
	if len(recs) != 10 {
		t.Fatalf("replayed %d records through torn tail, want 10", len(recs))
	}
	if st := w2.Stats(); st.Recovery.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("TruncatedBytes = %d, want %d", st.Recovery.TruncatedBytes, len(torn))
	}
	if err := w2.Start(nil); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover-then-recover: the tail was truncated on disk, so a second
	// recovery sees a clean log and the same records.
	d = openTestDir(t, dir, nil)
	defer d.Close()
	w3, recs := replayAll(t, d, WALOptions{})
	if len(recs) != 10 {
		t.Fatalf("second recovery replayed %d records, want 10", len(recs))
	}
	if st := w3.Stats(); st.Recovery.TruncatedBytes != 0 {
		t.Fatalf("second recovery still truncating: %+v", st.Recovery)
	}
}

func TestWALCorruptRecordFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	d := openTestDir(t, dir, nil)
	w, _ := replayAll(t, d, WALOptions{})
	if err := w.Start(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		lsn, _ := w.AppendPut([]byte(fmt.Sprintf("k%d", i)), []byte("abcdefgh"))
		if err := w.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte in the middle of the first record: a complete
	// frame whose checksum no longer matches. That is corruption, not a torn
	// tail, and recovery must refuse to proceed.
	seg := activeSegPath(t, dir)
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, frameHeaderLen+5); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d = openTestDir(t, dir, nil)
	defer d.Close()
	w2, err := OpenWAL(d, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = w2.Replay(func(op byte, key, value []byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupt record replayed without a checksum error: %v", err)
	}
}

func TestWALTornNonFinalSegmentFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	d := openTestDir(t, dir, nil)
	w, _ := replayAll(t, d, WALOptions{SegmentBytes: 256})
	// nil checkpoint: rotated segments are never pruned, so several
	// accumulate.
	if err := w.Start(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		lsn, err := w.AppendPut([]byte(fmt.Sprintf("key%04d", i)), []byte("0123456789abcdef"))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	ents, err := os.ReadDir(filepath.Join(dir, DirWAL))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) < 3 {
		t.Fatalf("expected several segments, got %d", len(ents))
	}
	// Chop the FIRST segment mid-frame. A crash cannot produce that shape —
	// later segments only exist because this one was complete — so recovery
	// must fail loudly rather than silently drop the records after the cut.
	first := filepath.Join(dir, DirWAL, ents[0].Name())
	st, err := os.Stat(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(first, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	d = openTestDir(t, dir, nil)
	defer d.Close()
	w2, err := OpenWAL(d, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = w2.Replay(func(op byte, key, value []byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "non-final") {
		t.Fatalf("torn non-final segment replayed without error: %v", err)
	}
}

func TestWALSyncModesAllSurviveClose(t *testing.T) {
	for _, mode := range []SyncMode{SyncEvery, SyncGroup, SyncNone} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			d := openTestDir(t, dir, nil)
			w, _ := replayAll(t, d, WALOptions{Mode: mode, FsyncEvery: 8, FsyncInterval: time.Millisecond})
			if err := w.Start(nil); err != nil {
				t.Fatal(err)
			}
			const n = 200
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < n/4; i++ {
						lsn, err := w.AppendPut([]byte(fmt.Sprintf("g%d-k%03d", g, i)), []byte("v"))
						if err != nil {
							t.Error(err)
							return
						}
						if err := w.WaitDurable(lsn); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			// Close fsyncs in every mode: a clean shutdown loses nothing.
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			d = openTestDir(t, dir, nil)
			defer d.Close()
			_, recs := replayAll(t, d, WALOptions{})
			if len(recs) != n {
				t.Fatalf("mode %v: replayed %d records, want %d", mode, len(recs), n)
			}
		})
	}
}

func TestWALKillKeepsAcknowledgedWrites(t *testing.T) {
	dir := t.TempDir()
	d := openTestDir(t, dir, nil)
	w, _ := replayAll(t, d, WALOptions{Mode: SyncEvery})
	if err := w.Start(nil); err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		lsn, err := w.AppendPut([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	// Kill skips the final flush and fsync — but every one of these writes
	// was acknowledged only after its fsync, so nothing may be lost.
	w.Kill()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = openTestDir(t, dir, nil)
	defer d.Close()
	_, recs := replayAll(t, d, WALOptions{})
	if len(recs) != n {
		t.Fatalf("replayed %d records after Kill, want %d", len(recs), n)
	}
}

func TestWALRotationCheckpointsAndPrunes(t *testing.T) {
	dir := t.TempDir()
	d := openTestDir(t, dir, nil)
	defer d.Close()
	w, _ := replayAll(t, d, WALOptions{SegmentBytes: 512})
	var checkpoints int
	if err := w.Start(func() error { checkpoints++; return nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		lsn, err := w.AppendPut([]byte(fmt.Sprintf("key%04d", i)), []byte("0123456789abcdef0123456789abcdef"))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoints after many rotations")
	}
	if checkpoints == 0 {
		t.Fatal("checkpoint callback never ran")
	}
	// Rotated-and-checkpointed segments are pruned: only the active segment
	// (plus at most one not-yet-pruned predecessor) remains.
	names, _, err := d.list(DirWAL)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) > 2 {
		t.Fatalf("%d segments on disk after checkpoints: %v", len(names), names)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALCheckpointFailureRetainsSegments(t *testing.T) {
	dir := t.TempDir()
	d := openTestDir(t, dir, nil)
	defer d.Close()
	w, _ := replayAll(t, d, WALOptions{SegmentBytes: 512})
	ckErr := errors.New("checkpoint refused")
	// The flusher goroutine calls the checkpoint; the test flips it.
	var fail atomic.Bool
	fail.Store(true)
	if err := w.Start(func() error {
		if fail.Load() {
			return ckErr
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	write := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			lsn, err := w.AppendPut([]byte(fmt.Sprintf("key%06d", i)), []byte("0123456789abcdef0123456789abcdef"))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WaitDurable(lsn); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(100)
	if st := w.Stats(); st.Checkpoints != 0 || st.Segments < 2 {
		t.Fatalf("failing checkpoint: stats = %+v", st)
	}
	// Once the checkpoint succeeds, the retained backlog is pruned in one go.
	fail.Store(false)
	write(100)
	if st := w.Stats(); st.Checkpoints == 0 {
		t.Fatalf("checkpoint never succeeded: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALTornWriteFault(t *testing.T) {
	dir := t.TempDir()
	fi := &FaultInjector{}
	d := openTestDir(t, dir, fi)
	w, _ := replayAll(t, d, WALOptions{Mode: SyncEvery})
	if err := w.Start(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		lsn, err := w.AppendPut([]byte(fmt.Sprintf("good%d", i)), []byte("value"))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the very next I/O: the flusher's WriteAt persists only half the
	// frame and reports success, then the fsync (injector now dead) fails, so
	// the append is never acknowledged.
	fi.Arm(1, FaultTornWrite)
	lsn, err := w.AppendPut([]byte("doomed"), []byte("never-acked"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(lsn); err == nil {
		t.Fatal("write after torn fault was acknowledged")
	}
	w.Kill()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The machine "comes back": recovery truncates the torn half-frame and
	// keeps every acknowledged record.
	fi.Reset()
	d = openTestDir(t, dir, fi)
	defer d.Close()
	w2, recs := replayAll(t, d, WALOptions{})
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want the 5 acknowledged ones", len(recs))
	}
	for i, r := range recs {
		if r.key != fmt.Sprintf("good%d", i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if st := w2.Stats(); st.Recovery.TruncatedBytes == 0 {
		t.Fatal("torn write left no truncated bytes")
	}
}

// TestWALRotationSyncsOutgoingSegment pins the rotation fsync: in SyncGroup
// (and nosync) modes records can sit written-but-unsynced when the active
// segment fills, and after rotation every later fdatasync covers only the
// new file. The rotation itself must therefore sync the outgoing segment —
// otherwise its tail stays volatile while the WAL reports those LSNs
// durable, and a power cut could tear a NON-final segment, which recovery
// treats as hard corruption instead of a truncatable crash artifact.
func TestWALRotationSyncsOutgoingSegment(t *testing.T) {
	dir := t.TempDir()
	d := openTestDir(t, dir, nil)
	defer d.Close()
	w, _ := replayAll(t, d, WALOptions{
		Mode:          SyncGroup,
		FsyncEvery:    1 << 30,   // batch threshold never reached
		FsyncInterval: time.Hour, // ticker never fires
		SegmentBytes:  256,
	})
	if err := w.Start(nil); err != nil {
		t.Fatal(err)
	}
	var lastLSN uint64
	for i := 0; i < 40; i++ {
		lsn, err := w.AppendPut([]byte(fmt.Sprintf("key%04d", i)), []byte("0123456789abcdef0123456789abcdef"))
		if err != nil {
			t.Fatal(err)
		}
		lastLSN = lsn
	}
	// Segments flips under the mutex before the rotation's fsync lands, so
	// wait for both: a rotation that never syncs is exactly the bug.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := w.Stats(); st.Segments >= 2 && st.Fsyncs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no synced rotation after 40 appends: %+v", w.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	// Everything in rotated segments is genuinely durable now, so the
	// durable frontier must cover at least the rotated records (the last
	// few may still sit in the active segment unsynced — that is the
	// SyncGroup contract, not a rotation leak).
	if got := w.durable.Load(); got == 0 || got > lastLSN {
		t.Fatalf("durable LSN %d after rotation, want in (0, %d]", got, lastLSN)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALPruneRefusedWithoutCleanClose pins the Prune guard: after a failed
// (or never-finished) replay the segments hold the only copy of un-applied
// records, and a confused caller must not be able to delete them.
func TestWALPruneRefusedWithoutCleanClose(t *testing.T) {
	dir := t.TempDir()
	d := openTestDir(t, dir, nil)
	w, _ := replayAll(t, d, WALOptions{})
	if err := w.Start(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendPut([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen but never replay or start: Prune must refuse.
	d = openTestDir(t, dir, nil)
	defer d.Close()
	w2, err := OpenWAL(d, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Prune(); err == nil {
		t.Fatal("Prune succeeded on a never-replayed WAL")
	}
	if names, _, err := d.list(DirWAL); err != nil || len(names) == 0 {
		t.Fatalf("segments gone after refused prune: %v, err %v", names, err)
	}
	// After a replay that stops at Kill (crash), Prune must still refuse.
	w3, _ := replayAll(t, d, WALOptions{})
	if err := w3.Start(nil); err != nil {
		t.Fatal(err)
	}
	w3.Kill()
	if err := w3.Prune(); err == nil {
		t.Fatal("Prune succeeded after Kill")
	}
	if names, _, err := d.list(DirWAL); err != nil || len(names) == 0 {
		t.Fatalf("segments gone after refused prune: %v, err %v", names, err)
	}
}

// TestWALAppendBatch pins the batch framing contract: contiguous LSNs from
// the returned first, one WaitDurable barrier covering the whole batch,
// mutation order preserved across replay, and caller buffers free for reuse
// the moment AppendBatch returns.
func TestWALAppendBatch(t *testing.T) {
	dir := t.TempDir()
	d := openTestDir(t, dir, nil)
	w, _ := replayAll(t, d, WALOptions{Mode: SyncEvery})
	if err := w.Start(nil); err != nil {
		t.Fatal(err)
	}
	if lsn, err := w.AppendBatch(nil); lsn != 0 || err != nil {
		t.Fatalf("empty batch = %d,%v", lsn, err)
	}
	first0, err := w.AppendPut([]byte("solo"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("reused-key")
	val := []byte("reused-val")
	var want []walRec
	want = append(want, walRec{OpPut, "solo", "v"})
	var lastFirst uint64
	for b := 0; b < 8; b++ {
		var entries []BatchEntry
		for i := 0; i < 5; i++ {
			copy(key[7:], fmt.Sprintf("%d%d", b, i))
			copy(val[7:], fmt.Sprintf("%d%d", b, i))
			if i == 4 {
				entries = append(entries, BatchEntry{Op: OpDel, Key: append([]byte(nil), key...)})
				want = append(want, walRec{OpDel, string(key), ""})
			} else {
				entries = append(entries, BatchEntry{Op: OpPut, Key: append([]byte(nil), key...), Value: append([]byte(nil), val...)})
				want = append(want, walRec{OpPut, string(key), string(val)})
			}
		}
		// Hand the WAL aliases of the scratch buffers to prove it copies.
		aliased := make([]BatchEntry, len(entries))
		for i, e := range entries {
			copy(key[7:], fmt.Sprintf("%d%d", b, i))
			copy(val[7:], fmt.Sprintf("%d%d", b, i))
			aliased[i] = BatchEntry{Op: e.Op, Key: key, Value: e.Value}
			if e.Op == OpDel {
				aliased[i].Value = nil
			}
			first, err := w.AppendBatch(aliased[i : i+1])
			if err != nil {
				t.Fatal(err)
			}
			if b == 0 && i == 0 && first != first0+1 {
				t.Fatalf("first batch LSN = %d, want %d", first, first0+1)
			}
			lastFirst = first
		}
	}
	if err := w.WaitDurable(lastFirst); err != nil {
		t.Fatal(err)
	}
	// One true multi-entry batch: contiguous LSNs, one durability barrier.
	multi := []BatchEntry{
		{Op: OpPut, Key: []byte("m1"), Value: []byte("x")},
		{Op: OpPut, Key: []byte("m2"), Value: []byte("y")},
		{Op: OpDel, Key: []byte("m1")},
	}
	first, err := w.AppendBatch(multi)
	if err != nil {
		t.Fatal(err)
	}
	if first != lastFirst+1 {
		t.Fatalf("multi-batch first LSN = %d, want %d", first, lastFirst+1)
	}
	if err := w.WaitDurable(first + 2); err != nil {
		t.Fatal(err)
	}
	want = append(want,
		walRec{OpPut, "m1", "x"},
		walRec{OpPut, "m2", "y"},
		walRec{OpDel, "m1", ""})
	if st := w.Stats(); st.Records != int64(len(want)) {
		t.Fatalf("Records = %d, want %d", st.Records, len(want))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-open WITHOUT pruning so the segments replay.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = openTestDir(t, dir, nil)
	defer d.Close()
	_, got := replayAll(t, d, WALOptions{})
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
