package sst

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/prismdb/prismdb/internal/simdev"
)

func testDev() (*simdev.Device, *simdev.PageCache) {
	return simdev.New(simdev.QLCParams(1 << 30)), simdev.NewPageCache(256 << 10)
}

func buildTable(t *testing.T, dev *simdev.Device, cache *simdev.PageCache, name string, n int) *Table {
	t.Helper()
	w := NewWriter(dev, cache, name, 0)
	for i := 0; i < n; i++ {
		err := w.Add(Record{
			Key:     []byte(fmt.Sprintf("key-%06d", i)),
			Value:   []byte(fmt.Sprintf("value-%06d", i)),
			Version: uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := w.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	dev, cache := testDev()
	w := NewWriter(dev, cache, "t1", 0)
	w.Add(Record{Key: []byte("b"), Version: 1})
	if err := w.Add(Record{Key: []byte("a"), Version: 2}); err == nil {
		t.Fatal("out-of-order key accepted")
	}
	if err := w.Add(Record{Key: []byte("b"), Version: 2}); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestEmptyTableRejected(t *testing.T) {
	dev, cache := testDev()
	w := NewWriter(dev, cache, "t1", 0)
	if _, err := w.Finish(nil); err == nil {
		t.Fatal("empty Finish must fail")
	}
}

func TestGetFound(t *testing.T) {
	dev, cache := testDev()
	tbl := buildTable(t, dev, cache, "t1", 1000)
	clk := simdev.NewClock()
	for _, i := range []int{0, 1, 499, 500, 998, 999} {
		key := []byte(fmt.Sprintf("key-%06d", i))
		rec, ok, err := tbl.Get(clk, key)
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", key, ok, err)
		}
		if string(rec.Value) != fmt.Sprintf("value-%06d", i) || rec.Version != uint64(i+1) {
			t.Fatalf("Get(%s) = %+v", key, rec)
		}
	}
	if tbl.Count() != 1000 {
		t.Fatalf("Count = %d", tbl.Count())
	}
}

func TestGetAbsent(t *testing.T) {
	dev, cache := testDev()
	tbl := buildTable(t, dev, cache, "t1", 100)
	dev.ResetStats()
	misses := 0
	for i := 0; i < 1000; i++ {
		_, ok, err := tbl.Get(nil, []byte(fmt.Sprintf("nokey-%06d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("found absent key")
		}
		misses++
	}
	// Bloom filter should have stopped almost all flash reads.
	if st := dev.Stats(); st.ReadOps > int64(misses/10) {
		t.Fatalf("bloom filter ineffective: %d reads for %d absent keys", st.ReadOps, misses)
	}
}

func TestSmallestLargestOverlaps(t *testing.T) {
	dev, cache := testDev()
	tbl := buildTable(t, dev, cache, "t1", 100)
	if string(tbl.Smallest()) != "key-000000" || string(tbl.Largest()) != "key-000099" {
		t.Fatalf("bounds %q..%q", tbl.Smallest(), tbl.Largest())
	}
	cases := []struct {
		lo, hi string
		want   bool
	}{
		{"key-000050", "key-000060", true},
		{"key-000099", "key-000200", true},
		{"key-000100", "key-000200", false},
		{"a", "key-000000", true},
		{"a", "b", false},
	}
	for _, c := range cases {
		if got := tbl.Overlaps([]byte(c.lo), []byte(c.hi)); got != c.want {
			t.Fatalf("Overlaps(%s,%s) = %v", c.lo, c.hi, got)
		}
	}
	if !tbl.Overlaps(nil, nil) {
		t.Fatal("unbounded range must overlap")
	}
}

func TestOpenRoundTrip(t *testing.T) {
	dev, cache := testDev()
	buildTable(t, dev, cache, "t1", 500)
	clk := simdev.NewClock()
	tbl, err := Open(dev, cache, "t1", clk)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Count() != 500 {
		t.Fatalf("Count = %d", tbl.Count())
	}
	if string(tbl.Smallest()) != "key-000000" || string(tbl.Largest()) != "key-000499" {
		t.Fatalf("bounds %q..%q", tbl.Smallest(), tbl.Largest())
	}
	rec, ok, _ := tbl.Get(nil, []byte("key-000250"))
	if !ok || string(rec.Value) != "value-000250" {
		t.Fatalf("Get after open: %+v ok=%v", rec, ok)
	}
	if clk.Now() == 0 {
		t.Fatal("Open should charge metadata read I/O")
	}
}

func TestOpenErrors(t *testing.T) {
	dev, cache := testDev()
	if _, err := Open(dev, cache, "missing", nil); err == nil {
		t.Fatal("open of missing file must fail")
	}
	f, _ := dev.CreateFile("junk")
	f.Append(make([]byte, 100))
	if _, err := Open(dev, cache, "junk", nil); err == nil {
		t.Fatal("open of junk file must fail (bad magic)")
	}
}

func TestReadAllOrdered(t *testing.T) {
	dev, cache := testDev()
	tbl := buildTable(t, dev, cache, "t1", 777)
	clk := simdev.NewClock()
	var keys []string
	err := tbl.ReadAll(clk, nil, func(r Record) error {
		keys = append(keys, string(r.Key))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 777 {
		t.Fatalf("ReadAll yielded %d", len(keys))
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatal("ReadAll out of order")
	}
	if clk.Now() == 0 {
		t.Fatal("ReadAll should charge sequential read")
	}
}

func TestIterSeekAndScan(t *testing.T) {
	dev, cache := testDev()
	tbl := buildTable(t, dev, cache, "t1", 1000)
	it := tbl.Iter(nil, []byte("key-000500"), false)
	var got []string
	for it.Valid() && len(got) < 5 {
		got = append(got, string(it.Record().Key))
		it.Next()
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	want := []string{"key-000500", "key-000501", "key-000502", "key-000503", "key-000504"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iter got %v", got)
		}
	}
	// Seek before the first key.
	it2 := tbl.Iter(nil, []byte("a"), false)
	if !it2.Valid() || string(it2.Record().Key) != "key-000000" {
		t.Fatal("seek before min failed")
	}
	// Seek past the last key.
	it3 := tbl.Iter(nil, []byte("z"), false)
	if it3.Valid() {
		t.Fatal("seek past max should be invalid")
	}
	// Full scan from nil.
	count := 0
	for it4 := tbl.Iter(nil, nil, false); it4.Valid(); it4.Next() {
		count++
	}
	if count != 1000 {
		t.Fatalf("full scan count = %d", count)
	}
}

func TestIterSeekBetweenBlocksBoundary(t *testing.T) {
	dev, cache := testDev()
	tbl := buildTable(t, dev, cache, "t1", 500)
	// Seek to a key that doesn't exist between two present keys.
	it := tbl.Iter(nil, []byte("key-000123x"), false)
	if !it.Valid() || string(it.Record().Key) != "key-000124" {
		t.Fatalf("boundary seek got %q valid=%v", it.Record().Key, it.Valid())
	}
}

func TestIterPrefetchFewerDeviceOps(t *testing.T) {
	dev, cache := testDev()
	tbl := buildTable(t, dev, cache, "big", 5000)
	dev.ResetStats()
	clk := simdev.NewClock()
	for it := tbl.Iter(clk, nil, false); it.Valid(); it.Next() {
	}
	noPrefetchOps := dev.Stats().ReadOps
	// Fresh identical table so the page cache state is comparable.
	tbl2 := buildTable(t, dev, cache, "big2", 5000)
	dev.ResetStats()
	clk2 := simdev.NewClock()
	for it := tbl2.Iter(clk2, nil, true); it.Valid(); it.Next() {
	}
	prefetchOps := dev.Stats().ReadOps
	if prefetchOps*4 > noPrefetchOps {
		t.Fatalf("prefetch ops %d not ≪ non-prefetch %d", prefetchOps, noPrefetchOps)
	}
}

func TestTombstonesSurvive(t *testing.T) {
	dev, cache := testDev()
	w := NewWriter(dev, cache, "t1", 0)
	w.Add(Record{Key: []byte("a"), Version: 1})
	w.Add(Record{Key: []byte("b"), Version: 2, Tombstone: true})
	tbl, err := w.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok, _ := tbl.Get(nil, []byte("b"))
	if !ok || !rec.Tombstone {
		t.Fatalf("tombstone lost: %+v ok=%v", rec, ok)
	}
}

func TestQuickTableRoundTrip(t *testing.T) {
	// Property: any sorted unique key set written is fully readable, in
	// order, both by Get and by iteration.
	f := func(seed [][2][]byte) bool {
		m := map[string][]byte{}
		for _, kv := range seed {
			if len(kv[0]) == 0 {
				continue
			}
			m[string(kv[0])] = kv[1]
		}
		if len(m) == 0 {
			return true
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		dev, cache := testDev()
		w := NewWriter(dev, cache, "q", 64) // tiny blocks to force many
		for i, k := range keys {
			if err := w.Add(Record{Key: []byte(k), Value: m[k], Version: uint64(i + 1)}); err != nil {
				return false
			}
		}
		tbl, err := w.Finish(nil)
		if err != nil {
			return false
		}
		for _, k := range keys {
			rec, ok, err := tbl.Get(nil, []byte(k))
			if err != nil || !ok || !bytes.Equal(rec.Value, m[k]) {
				return false
			}
		}
		i := 0
		for it := tbl.Iter(nil, nil, false); it.Valid(); it.Next() {
			if string(it.Record().Key) != keys[i] {
				return false
			}
			i++
		}
		return i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestManifestApplyAndPersist(t *testing.T) {
	dev, cache := testDev()
	m, err := NewManifest(dev, cache, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	t1 := buildTable(t, dev, cache, "sst-1", 100)
	t2 := buildTable(t, dev, cache, "sst-2", 100)
	if err := m.Apply([]*Table{t1, t2}, nil); err != nil {
		t.Fatal(err)
	}
	if m.Tables() != 2 || m.TotalCount() != 200 {
		t.Fatalf("tables=%d count=%d", m.Tables(), m.TotalCount())
	}
	// Reload from device.
	m2, err := LoadManifest(dev, cache, "MANIFEST", simdev.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if m2.Tables() != 2 || m2.TotalCount() != 200 {
		t.Fatalf("reloaded tables=%d count=%d", m2.Tables(), m2.TotalCount())
	}
}

func TestManifestRefcountProtectsReaders(t *testing.T) {
	dev, cache := testDev()
	m, _ := NewManifest(dev, cache, "MANIFEST")
	t1 := buildTable(t, dev, cache, "sst-1", 50)
	m.Apply([]*Table{t1}, nil)

	snap := m.Acquire()
	if snap.Len() != 1 {
		t.Fatalf("snapshot size %d", snap.Len())
	}
	// Compaction removes t1 while the snapshot is live.
	if err := m.Apply(nil, []*Table{t1}); err != nil {
		t.Fatal(err)
	}
	// File must still exist for the snapshot holder.
	if _, err := dev.OpenFile("sst-1"); err != nil {
		t.Fatal("file deleted while referenced by a reader")
	}
	if _, ok, err := snap.Tables()[0].Get(nil, []byte("key-000010")); err != nil || !ok {
		t.Fatalf("read through snapshot failed: ok=%v err=%v", ok, err)
	}
	snap.Release()
	if _, err := dev.OpenFile("sst-1"); err == nil {
		t.Fatal("file not deleted after last reference released")
	}
}

func TestManifestTablesSortedDisjoint(t *testing.T) {
	dev, cache := testDev()
	m, _ := NewManifest(dev, cache, "MANIFEST")
	// Build tables out of order.
	w := NewWriter(dev, cache, "sst-b", 0)
	w.Add(Record{Key: []byte("m"), Version: 1})
	tb, _ := w.Finish(nil)
	w2 := NewWriter(dev, cache, "sst-a", 0)
	w2.Add(Record{Key: []byte("a"), Version: 1})
	ta, _ := w2.Finish(nil)
	m.Apply([]*Table{tb, ta}, nil)
	snap := m.Acquire()
	defer snap.Release()
	tabs := snap.Tables()
	if string(tabs[0].Smallest()) != "a" || string(tabs[1].Smallest()) != "m" {
		t.Fatalf("not sorted: %q, %q", tabs[0].Smallest(), tabs[1].Smallest())
	}
}

func TestSnapshotFind(t *testing.T) {
	dev, cache := testDev()
	m, _ := NewManifest(dev, cache, "MANIFEST")
	// Three disjoint tables: [b..d], [f..h], [m..p].
	mk := func(name string, keys ...string) *Table {
		w := NewWriter(dev, cache, name, 0)
		for i, k := range keys {
			if err := w.Add(Record{Key: []byte(k), Version: uint64(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		tb, err := w.Finish(nil)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	m.Apply([]*Table{mk("sst-1", "b", "c", "d"), mk("sst-2", "f", "g", "h"), mk("sst-3", "m", "p")}, nil)
	snap := m.Acquire()
	defer snap.Release()
	for _, tc := range []struct {
		key  string
		want string // smallest key of the table expected, "" = no table
	}{
		{"a", ""}, {"b", "b"}, {"c", "b"}, {"d", "b"}, {"e", ""},
		{"f", "f"}, {"h", "f"}, {"i", ""}, {"m", "m"}, {"n", "m"},
		{"p", "m"}, {"q", ""},
	} {
		got := snap.Find([]byte(tc.key))
		switch {
		case tc.want == "" && got != nil:
			t.Fatalf("Find(%q) = table %q, want none", tc.key, got.Smallest())
		case tc.want != "" && got == nil:
			t.Fatalf("Find(%q) = none, want table %q", tc.key, tc.want)
		case tc.want != "" && string(got.Smallest()) != tc.want:
			t.Fatalf("Find(%q) = table %q, want %q", tc.key, got.Smallest(), tc.want)
		}
	}
	if got := snap.SearchFrom([]byte("e")); got != 1 {
		t.Fatalf("SearchFrom(e) = %d, want 1", got)
	}
	if got := snap.SearchFrom(nil); got != 0 {
		t.Fatalf("SearchFrom(nil) = %d, want 0", got)
	}
	if got := snap.SearchFrom([]byte("z")); got != 3 {
		t.Fatalf("SearchFrom(z) = %d, want 3", got)
	}
}

// TestSnapshotRefcountConcurrentApply hammers Acquire/Release against
// concurrent Apply calls: every superseded snapshot must drain to zero
// references exactly once, every removed table's file must be deleted when
// its last snapshot goes, and readers must never observe a deleted file.
// Run with -race.
func TestSnapshotRefcountConcurrentApply(t *testing.T) {
	dev, cache := testDev()
	m, _ := NewManifest(dev, cache, "MANIFEST")
	t0 := buildTable(t, dev, cache, "sst-gen0", 50)
	if err := m.Apply([]*Table{t0}, nil); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var readerErr atomic.Value
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := m.Acquire()
				for _, tb := range snap.Tables() {
					if _, _, err := tb.Get(nil, []byte("key-000010")); err != nil {
						readerErr.Store(err)
						snap.Release()
						return
					}
				}
				snap.Release()
			}
		}()
	}

	// Writer: repeatedly replace the whole table set.
	cur := t0
	for gen := 1; gen <= 60; gen++ {
		next := buildTable(t, dev, cache, fmt.Sprintf("sst-gen%d", gen), 50)
		if err := m.Apply([]*Table{next}, []*Table{cur}); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	close(done)
	wg.Wait()
	if err := readerErr.Load(); err != nil {
		t.Fatalf("reader observed error: %v", err)
	}

	// Quiescent: only the final table remains, with exactly the current
	// snapshot's single reference; all superseded files are gone.
	if m.Tables() != 1 {
		t.Fatalf("live tables = %d, want 1", m.Tables())
	}
	if refs := m.refsOf(cur); refs != 1 {
		t.Fatalf("final table refs = %d, want 1", refs)
	}
	snap := m.Acquire()
	if got := snap.snapshotRefs(); got != 2 {
		t.Fatalf("acquired snapshot refs = %d, want 2", got)
	}
	snap.Release()
	for gen := 0; gen < 60; gen++ {
		if _, err := dev.OpenFile(fmt.Sprintf("sst-gen%d", gen)); err == nil {
			t.Fatalf("superseded file sst-gen%d not deleted", gen)
		}
	}
}

func TestManifestMetaBytes(t *testing.T) {
	dev, cache := testDev()
	m, _ := NewManifest(dev, cache, "MANIFEST")
	t1 := buildTable(t, dev, cache, "sst-1", 1000)
	m.Apply([]*Table{t1}, nil)
	if m.MetaBytes() <= 0 {
		t.Fatal("MetaBytes should be positive (index + filter on NVM)")
	}
	if m.MetaBytes() != t1.MetaBytes() {
		t.Fatalf("manifest meta %d != table meta %d", m.MetaBytes(), t1.MetaBytes())
	}
}
