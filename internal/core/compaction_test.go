package core

import (
	"bytes"
	"testing"

	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/sst"
)

const (
	promoKeys     = 2000
	promoHotEvery = 40
	promoVSize    = 400
)

// loadForPromotion writes promoKeys keys, enough that demotion rounds move
// most of them to flash.
func loadForPromotion(t testing.TB, db *DB) {
	t.Helper()
	for i := 0; i < promoKeys; i++ {
		if _, err := db.Put(key(i), val(i, promoVSize)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
}

// overwriteCold rewrites every key but the hot set (every promoHotEvery-th
// key, left on flash by the load) and reads two hot keys after each write:
// the tracker pins the hot keys while the writes push NVM over the
// watermark, so the demotion rounds that follow merge ranges holding hot
// flash keys and (in sync mode) promote them back to NVM.
func overwriteCold(t testing.TB, db *DB, passes int) {
	t.Helper()
	hot := 0
	for pass := 0; pass < passes; pass++ {
		for i := 0; i < promoKeys; i++ {
			if i%promoHotEvery == 0 {
				continue
			}
			if _, err := db.Put(key(i), val(i, promoVSize)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			for r := 0; r < 2; r++ {
				db.Get(key(hot))
				hot = (hot + promoHotEvery) % promoKeys
			}
		}
	}
}

// TestPromotedKeysSurviveArenaReuse is the regression test for promoted
// keys aliasing a compaction read arena. A promotion inserts the flash
// record's key into the B-tree; that record is a view into the round's
// flash arena, which the next round overwrites. After sync and async
// rounds that promote, and demotion rounds after them, the cached arenas
// are scribbled over, and every key must still read back with its value
// from the tier it was on before.
func TestPromotedKeysSurviveArenaReuse(t *testing.T) {
	for _, mode := range []CompactionMode{CompactionSync, CompactionAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			o := testOptions()
			o.CompactionMode = mode
			o.Promotions = true
			db, err := Open(o)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			loadForPromotion(t, db)
			overwriteCold(t, db, 3)
			p := db.parts[0]
			p.mu.Lock()
			p.drainLocked()
			// An async demotion round seldom promotes: its commit checks
			// room against live usage before the round's own frees land.
			// A read-triggered round runs the same merge and commit with
			// room up to the high watermark.
			for i := 0; i < 20 && p.stats.Promoted == 0; i++ {
				if mode == CompactionSync {
					p.runPromotionCompaction()
				} else {
					p.asyncPromotionJob()
				}
			}
			promoted := p.stats.Promoted
			p.mu.Unlock()
			if promoted == 0 {
				t.Fatal("no compaction round promoted; the test exercises nothing")
			}
			// More demotion rounds, reusing the arenas the promotions read
			// through.
			overwriteCold(t, db, 1)
			p.mu.Lock()
			p.drainLocked()
			p.mu.Unlock()

			n := promoKeys
			fast := make([]bool, n)
			for i := 0; i < n; i++ {
				_, tier, _, err := db.Get(key(i))
				if err != nil || tier == TierMiss {
					t.Fatalf("key %d before scribble: tier=%v err=%v", i, tier, err)
				}
				fast[i] = tier != TierFlash
			}

			db.arenas.mu.Lock()
			idle := db.arenas.idle
			if idle != nil {
				for _, a := range [][]byte{idle.rec, idle.flash} {
					a = a[:cap(a)]
					for i := range a {
						a[i] = 0xA5
					}
				}
			}
			db.arenas.mu.Unlock()
			if idle == nil {
				t.Fatal("no merge arenas cached after the rounds")
			}

			for i := 0; i < n; i++ {
				v, tier, _, err := db.Get(key(i))
				if err != nil || tier == TierMiss {
					t.Fatalf("key %d after scribble: tier=%v err=%v", i, tier, err)
				}
				if !bytes.Equal(v, val(i, promoVSize)) {
					t.Fatalf("key %d: wrong value after scribble", i)
				}
				if got := tier != TierFlash; got != fast[i] {
					t.Fatalf("key %d: fast tier %v after scribble, %v before (tier %v)", i, got, fast[i], tier)
				}
			}
		})
	}
}

// BenchmarkCompactRange measures one sync demotion round: the merge of a
// range's NVM objects with its SST (slab reads, the SST read into the flash
// arena, merge, output SST build and hand-off, manifest commit). Before
// each round, with compaction held off, every key of the range's table is
// rewritten to NVM, so each round demotes the same ~250 1 KiB objects into
// one table and the partition stays in a steady state.
func BenchmarkCompactRange(b *testing.B) {
	o := testOptions()
	o.NVMBudget = 2 << 20
	o.TargetSSTBytes = 256 << 10
	db, err := Open(o)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const n, vsize = 8000, 1024
	for i := 0; i < n; i++ {
		if _, err := db.Put(key(i), val(i, vsize)); err != nil {
			b.Fatal(err)
		}
	}
	p := db.parts[0]
	p.mu.Lock()
	high := p.opts.HighWatermark
	p.mu.Unlock()
	var keys [][]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p.mu.Lock()
		snap := p.man.Acquire()
		ranges := p.buildRanges(snap.Tables())
		r := p.retainRange(ranges[i%len(ranges)])
		snap.Release()
		p.opts.HighWatermark = 2 // hold compaction off while refilling
		p.mu.Unlock()
		keys = keys[:0]
		for _, t := range r.tables {
			err := t.ReadAll(nil, nil, func(rec sst.Record) error {
				keys = append(keys, rec.Key)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, k := range keys {
			if _, err := db.Put(k, val(0, vsize)); err != nil {
				b.Fatal(err)
			}
		}
		p.mu.Lock()
		p.opts.HighWatermark = high
		compClk := simdev.NewBGClock()
		compClk.AdvanceTo(p.clk.Now())
		b.StartTimer()
		p.compactRange(compClk, r, true, false, true)
		b.StopTimer()
		p.mu.Unlock()
	}
}
