package sst

import (
	"fmt"
	"testing"

	"github.com/prismdb/prismdb/internal/simdev"
)

// TestReadAllWarmArenaZeroAlloc guards the compaction read path: once an
// arena has grown to a table's data size, reading the table again into it
// allocates nothing — no block buffers, no per-record copies.
func TestReadAllWarmArenaZeroAlloc(t *testing.T) {
	dev, cache := testDev()
	tbl := buildTable(t, dev, cache, "t1", 2000)
	clk := simdev.NewClock()
	var arena []byte
	n := 0
	count := func(Record) error { n++; return nil }
	if err := tbl.ReadAll(clk, &arena, count); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		arena, n = arena[:0], 0
		if err := tbl.ReadAll(clk, &arena, count); err != nil || n != 2000 {
			t.Fatalf("ReadAll: %d records, err %v", n, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadAll into a warm arena: %v allocs/op, want 0", allocs)
	}
}

// TestReadAllArenaAppends checks that successive reads into one arena keep
// the earlier table's views intact, which is what lets a merge hold the
// records of every input table at once.
func TestReadAllArenaAppends(t *testing.T) {
	dev, cache := testDev()
	a := buildTable(t, dev, cache, "a", 300)
	b := buildTable(t, dev, cache, "b", 500)
	var arena []byte
	var recs []Record
	keep := func(r Record) error { recs = append(recs, r); return nil }
	if err := a.ReadAll(nil, &arena, keep); err != nil {
		t.Fatal(err)
	}
	if err := b.ReadAll(nil, &arena, keep); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 800 {
		t.Fatalf("read %d records, want 800", len(recs))
	}
	for i, r := range recs {
		j := i
		if i >= 300 {
			j = i - 300
		}
		if want := fmt.Sprintf("key-%06d", j); string(r.Key) != want {
			t.Fatalf("record %d: key %q, want %q", i, r.Key, want)
		}
	}
}

// benchKeys returns n sorted 16-byte keys.
func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%012d", i))
	}
	return keys
}

// benchTable builds a table of the keys with valueSize-byte values through
// a writer sized like a compaction's output.
func benchTable(b *testing.B, dev *simdev.Device, name string, keys [][]byte, valueSize int) *Table {
	w := NewWriterSize(dev, nil, name, DefaultBlockSize, len(keys)*(valueSize+31))
	val := make([]byte, valueSize)
	for i, k := range keys {
		if err := w.Add(Record{Key: k, Value: val, Version: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
	tbl, err := w.Finish(simdev.NewClock())
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

// BenchmarkSSTFinish measures building one compaction-sized table: adding
// 300 records of 1 KiB, then Finish (index, bloom filter, footer and the
// hand-off to the device).
func BenchmarkSSTFinish(b *testing.B) {
	dev := simdev.New(simdev.QLCParams(1 << 40))
	keys := benchKeys(300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := benchTable(b, dev, "t", keys, 1024)
		b.SetBytes(tbl.Size())
		if err := dev.RemoveFile(tbl.Name()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSTReadAll measures the compaction read of a table: the block
// reads and record decoding of ReadAll into a warm arena, and the block
// read plus CRC check the scrubber does per block.
func BenchmarkSSTReadAll(b *testing.B) {
	dev := simdev.New(simdev.QLCParams(1 << 30))
	tbl := benchTable(b, dev, "t", benchKeys(300), 1024)
	b.Run("readall", func(b *testing.B) {
		clk := simdev.NewClock()
		var arena []byte
		n := 0
		count := func(Record) error { n++; return nil }
		if err := tbl.ReadAll(clk, &arena, count); err != nil { // warm the arena
			b.Fatal(err)
		}
		b.SetBytes(tbl.Size())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arena = arena[:0]
			if err := tbl.ReadAll(clk, &arena, count); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify", func(b *testing.B) {
		buf := make([]byte, 0, 2*DefaultBlockSize) // a block overshoots its target by up to one record
		b.SetBytes(tbl.Size())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for blk := 0; blk < tbl.NumBlocks(); blk++ {
				var ok bool
				var err error
				if ok, buf, err = tbl.VerifyBlock(blk, buf); err != nil || !ok {
					b.Fatalf("block %d: ok=%v err=%v", blk, ok, err)
				}
			}
		}
	})
}
