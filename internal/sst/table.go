// Package sst implements the Sorted String Table files PrismDB stores on
// flash (§4.1): immutable files of sorted key-value records organised into
// blocks, with a per-file index and bloom filter. As in the paper, the index
// and filter are small enough to live on NVM; the engine accounts for their
// footprint there while this package keeps parsed copies in memory.
//
// SST files store disjoint key ranges within a partition's flash log, which
// makes point lookups a single block read.
package sst

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"github.com/prismdb/prismdb/internal/bloom"
	"github.com/prismdb/prismdb/internal/simdev"
)

// blockCRCTable is the Castagnoli polynomial used for data-block checksums.
var blockCRCTable = crc32.MakeTable(crc32.Castagnoli)

// DefaultBlockSize is the target data-block size. Flash reads happen at
// block granularity, so this matches the device page size.
const DefaultBlockSize = 4096

const footerMagic = 0x5052534d53535431 // "PRSMSST1"

// Record is one stored entry. Tombstones persist deletes of keys whose
// older versions may still exist in earlier flash data.
type Record struct {
	Key       []byte
	Value     []byte
	Version   uint64
	Tombstone bool
}

// blockHandle locates a data block within the file. crc is the Castagnoli
// checksum of the block's bytes, stored in the index (which lives on NVM)
// so the scrubber can detect flash bit rot without trusting the flash
// contents to checksum themselves.
type blockHandle struct {
	off, len int64
	crc      uint32
	lastKey  []byte // largest key in the block
}

// Table is an open, immutable SST file. The parsed index and bloom filter
// are retained in memory (their byte size is reported by MetaBytes so the
// engine can charge NVM capacity for them, per §4.1).
type Table struct {
	file   *simdev.File
	dev    *simdev.Device
	cache  *simdev.PageCache
	index  []blockHandle
	filter *bloom.Filter

	// Optional second-level cache tier (e.g. NVM as an L2 block cache in
	// the rocksdb-l2c baseline): block reads missing the primary cache
	// check tierCache; hits there cost a tierDev read instead of a dev
	// read, and misses are inserted.
	tierCache *simdev.PageCache
	tierDev   *simdev.Device

	smallest []byte
	largest  []byte
	count    int   // number of records
	size     int64 // file bytes
	refs     int   // guarded by the owning Manifest
	// quarantined marks a table the scrubber evicted for bit rot: its file
	// is preserved on the device when the last reference drops, instead of
	// being deleted (guarded by the owning Manifest's mu).
	quarantined bool
}

// SetTierCache installs a second-level block cache backed by tierDev.
func (t *Table) SetTierCache(c *simdev.PageCache, dev *simdev.Device) {
	t.tierCache = c
	t.tierDev = dev
}

// Device returns the device holding the table's file.
func (t *Table) Device() *simdev.Device { return t.dev }

// Name returns the underlying file name.
func (t *Table) Name() string { return t.file.Name() }

// Smallest returns the table's smallest key.
func (t *Table) Smallest() []byte { return t.smallest }

// Largest returns the table's largest key.
func (t *Table) Largest() []byte { return t.largest }

// Count returns the number of records.
func (t *Table) Count() int { return t.count }

// Size returns the file size in bytes.
func (t *Table) Size() int64 { return t.size }

// MetaBytes returns the bytes of index + filter the engine must account for
// on NVM.
func (t *Table) MetaBytes() int64 {
	var n int64
	for _, h := range t.index {
		n += int64(len(h.lastKey)) + 16
	}
	if t.filter != nil {
		n += int64(t.filter.SizeBytes())
	}
	return n
}

// Overlaps reports whether the table's key range intersects [lo, hi].
// A nil hi means +∞; a nil lo means -∞.
func (t *Table) Overlaps(lo, hi []byte) bool {
	if hi != nil && bytes.Compare(t.smallest, hi) > 0 {
		return false
	}
	if lo != nil && bytes.Compare(t.largest, lo) < 0 {
		return false
	}
	return true
}

// recordHeader is the fixed part of a serialized record.
const recordHeader = 15

// EncodedLen returns the bytes r occupies in a data block.
func (r Record) EncodedLen() int { return recordHeader + len(r.Key) + len(r.Value) }

// appendRecord serializes a record into buf:
// [version u64][keyLen u16][valLen u32][flags u8] key value
func appendRecord(buf []byte, r Record) []byte {
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:], r.Version)
	binary.LittleEndian.PutUint16(hdr[8:], uint16(len(r.Key)))
	binary.LittleEndian.PutUint32(hdr[10:], uint32(len(r.Value)))
	if r.Tombstone {
		hdr[14] = 1
	}
	buf = append(buf, hdr[:]...)
	buf = append(buf, r.Key...)
	buf = append(buf, r.Value...)
	return buf
}

// decodeRecord parses one record from data, returning a view whose Key and
// Value alias data, plus the remaining bytes. Callers that retain the
// record beyond the block buffer's lifetime must Clone it.
func decodeRecord(data []byte) (Record, []byte, error) {
	if len(data) < recordHeader {
		return Record{}, nil, errors.New("sst: truncated record header")
	}
	version := binary.LittleEndian.Uint64(data[0:])
	kl := int(binary.LittleEndian.Uint16(data[8:]))
	vl := int(binary.LittleEndian.Uint32(data[10:]))
	tomb := data[14] == 1
	data = data[recordHeader:]
	if len(data) < kl+vl {
		return Record{}, nil, errors.New("sst: truncated record body")
	}
	rec := Record{
		Key:       data[:kl:kl],
		Value:     data[kl : kl+vl : kl+vl],
		Version:   version,
		Tombstone: tomb,
	}
	return rec, data[kl+vl:], nil
}

// Clone returns a record owning fresh copies of its key and value.
func (r Record) Clone() Record {
	r.Key = append([]byte(nil), r.Key...)
	r.Value = append([]byte(nil), r.Value...)
	return r
}

// Writer builds an SST file. Records must be added in strictly increasing
// key order. The file is written with one large sequential device write at
// Finish, matching the paper's flash layout goal of large sequential writes.
type Writer struct {
	dev       *simdev.Device
	cache     *simdev.PageCache
	name      string
	blockSize int

	buf    []byte // current block
	blocks []blockHandle
	data   []byte // all finished blocks
	filter *bloom.Filter
	// Keys are collected for the filter in one flat buffer (offsets into
	// keyBuf) instead of one allocation per key.
	keyBuf   []byte
	keyOffs  []int
	firstKey []byte
	lastKey  []byte
	count    int
}

// NewWriter starts building a table in the named file on dev.
func NewWriter(dev *simdev.Device, cache *simdev.PageCache, name string, blockSize int) *Writer {
	return NewWriterSize(dev, cache, name, blockSize, 0)
}

// NewWriterSize is NewWriter with a hint of the output's data size, so the
// file buffer is allocated once instead of growing through doubling —
// compactions stream entire tables through writers, making that churn the
// largest allocation source in the engine. The buffer leaves room past the
// hint for the overshooting last block and the index, filter and footer
// that Finish appends, so a table of about sizeHint bytes is handed to the
// device without a copy.
func NewWriterSize(dev *simdev.Device, cache *simdev.PageCache, name string, blockSize, sizeHint int) *Writer {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	w := &Writer{dev: dev, cache: cache, name: name, blockSize: blockSize}
	if sizeHint > 0 {
		w.data = make([]byte, 0, sizeHint+blockSize+sizeHint/16)
		w.keyBuf = make([]byte, 0, sizeHint/32)
	}
	return w
}

// Add appends a record. Keys must arrive in strictly increasing order.
func (w *Writer) Add(r Record) error {
	if w.lastKey != nil && bytes.Compare(r.Key, w.lastKey) <= 0 {
		return fmt.Errorf("sst: keys out of order: %q after %q", r.Key, w.lastKey)
	}
	if w.firstKey == nil {
		w.firstKey = append([]byte(nil), r.Key...)
	}
	w.lastKey = append(w.lastKey[:0], r.Key...)
	w.buf = appendRecord(w.buf, r)
	w.keyOffs = append(w.keyOffs, len(w.keyBuf))
	w.keyBuf = append(w.keyBuf, r.Key...)
	w.count++
	if len(w.buf) >= w.blockSize {
		w.flushBlock()
	}
	return nil
}

func (w *Writer) flushBlock() {
	if len(w.buf) == 0 {
		return
	}
	w.blocks = append(w.blocks, blockHandle{
		off:     int64(len(w.data)),
		len:     int64(len(w.buf)),
		crc:     crc32.Checksum(w.buf, blockCRCTable),
		lastKey: append([]byte(nil), w.lastKey...),
	})
	w.data = append(w.data, w.buf...)
	w.buf = w.buf[:0]
}

// Count returns the records added so far.
func (w *Writer) Count() int { return w.count }

// EstimatedSize returns the bytes buffered so far, for size-based splits.
func (w *Writer) EstimatedSize() int64 { return int64(len(w.data) + len(w.buf)) }

// Finish writes the file and returns an open Table. The write is charged as
// one sequential flash write against clk (nil skips time accounting, e.g.
// during test setup). The index, filter and footer are appended to the
// data buffer, which then passes to the device (Device.WriteFile) without
// a copy; the Writer must not be used afterwards.
func (w *Writer) Finish(clk *simdev.Clock) (*Table, error) {
	if w.count == 0 {
		return nil, errors.New("sst: cannot finish empty table")
	}
	w.flushBlock()

	// Bloom filter over every key.
	w.filter = bloom.New(len(w.keyOffs), 0.01)
	for i, off := range w.keyOffs {
		end := len(w.keyBuf)
		if i+1 < len(w.keyOffs) {
			end = w.keyOffs[i+1]
		}
		w.filter.Add(w.keyBuf[off:end])
	}

	// Layout: data | index | filter | footer, assembled in one buffer.
	idxOff := int64(len(w.data))
	idxLen := int64(4 + 2 + len(w.firstKey))
	for _, b := range w.blocks {
		idxLen += int64(18 + len(b.lastKey))
	}
	fOff := idxOff + idxLen
	fLen := int64(w.filter.EncodedLen())
	total := fOff + fLen + 48
	buf := w.data
	// The file keeps buf's whole backing array, so a table much smaller
	// than its size hint (a merge's last output) is copied into an exact
	// buffer rather than pinning the unused capacity.
	if int64(cap(buf)) < total || int64(cap(buf))-total > total/8 {
		buf = make([]byte, idxOff, total)
		copy(buf, w.data)
	}
	w.data = nil

	// Index block, then the smallest key, for reopening.
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(len(w.blocks)))
	for _, b := range w.blocks {
		buf = le.AppendUint64(buf, uint64(b.off))
		buf = le.AppendUint32(buf, uint32(b.len))
		buf = le.AppendUint32(buf, b.crc)
		buf = le.AppendUint16(buf, uint16(len(b.lastKey)))
		buf = append(buf, b.lastKey...)
	}
	buf = le.AppendUint16(buf, uint16(len(w.firstKey)))
	buf = append(buf, w.firstKey...)
	buf = w.filter.AppendTo(buf)
	for _, v := range []uint64{uint64(idxOff), uint64(idxLen), uint64(fOff), uint64(fLen), uint64(w.count), footerMagic} {
		buf = le.AppendUint64(buf, v)
	}

	f, err := w.dev.WriteFile(w.name, buf)
	if err != nil {
		return nil, err
	}
	if clk != nil {
		w.dev.AccessClk(clk, simdev.OpWrite, total)
	}
	return &Table{
		file:     f,
		dev:      w.dev,
		cache:    w.cache,
		index:    w.blocks,
		filter:   w.filter,
		smallest: w.firstKey,
		largest:  append([]byte(nil), w.lastKey...),
		count:    w.count,
		size:     total,
	}, nil
}

// Open loads an existing SST file's metadata (footer, index, filter). Used
// during recovery; charges one sequential read of the metadata if clk is
// non-nil.
func Open(dev *simdev.Device, cache *simdev.PageCache, name string, clk *simdev.Clock) (*Table, error) {
	f, err := dev.OpenFile(name)
	if err != nil {
		return nil, err
	}
	size := f.Size()
	if size < 48 {
		return nil, fmt.Errorf("sst: %s too small (%d bytes)", name, size)
	}
	var footer [48]byte
	if err := f.ReadAt(footer[:], size-48); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(footer[40:]) != footerMagic {
		return nil, fmt.Errorf("sst: %s bad magic", name)
	}
	idxOff := int64(binary.LittleEndian.Uint64(footer[0:]))
	idxLen := int64(binary.LittleEndian.Uint64(footer[8:]))
	fOff := int64(binary.LittleEndian.Uint64(footer[16:]))
	fLen := int64(binary.LittleEndian.Uint64(footer[24:]))
	count := int(binary.LittleEndian.Uint64(footer[32:]))
	if idxOff < 0 || idxOff+idxLen > size || fOff < 0 || fOff+fLen > size {
		return nil, fmt.Errorf("sst: %s corrupt footer", name)
	}

	idx := make([]byte, idxLen)
	if err := f.ReadAt(idx, idxOff); err != nil {
		return nil, err
	}
	if clk != nil {
		dev.AccessClk(clk, simdev.OpRead, idxLen+fLen)
	}
	if len(idx) < 4 {
		return nil, fmt.Errorf("sst: %s truncated index", name)
	}
	nBlocks := int(binary.LittleEndian.Uint32(idx))
	idx = idx[4:]
	blocks := make([]blockHandle, 0, nBlocks)
	for i := 0; i < nBlocks; i++ {
		if len(idx) < 18 {
			return nil, fmt.Errorf("sst: %s truncated index entry", name)
		}
		off := int64(binary.LittleEndian.Uint64(idx[0:]))
		blen := int64(binary.LittleEndian.Uint32(idx[8:]))
		crc := binary.LittleEndian.Uint32(idx[12:])
		kl := int(binary.LittleEndian.Uint16(idx[16:]))
		idx = idx[18:]
		if len(idx) < kl {
			return nil, fmt.Errorf("sst: %s truncated index key", name)
		}
		blocks = append(blocks, blockHandle{
			off: off, len: blen, crc: crc,
			lastKey: append([]byte(nil), idx[:kl]...),
		})
		idx = idx[kl:]
	}
	if len(idx) < 2 {
		return nil, fmt.Errorf("sst: %s missing smallest key", name)
	}
	skl := int(binary.LittleEndian.Uint16(idx))
	idx = idx[2:]
	if len(idx) < skl {
		return nil, fmt.Errorf("sst: %s truncated smallest key", name)
	}
	smallest := append([]byte(nil), idx[:skl]...)

	fb := make([]byte, fLen)
	if err := f.ReadAt(fb, fOff); err != nil {
		return nil, err
	}
	filter, err := bloom.FromBytes(fb)
	if err != nil {
		return nil, fmt.Errorf("sst: %s: %v", name, err)
	}
	if nBlocks == 0 {
		return nil, fmt.Errorf("sst: %s has no blocks", name)
	}
	return &Table{
		file:     f,
		dev:      dev,
		cache:    cache,
		index:    blocks,
		filter:   filter,
		smallest: smallest,
		largest:  blocks[len(blocks)-1].lastKey,
		count:    count,
		size:     size,
	}, nil
}

// MayContain consults the bloom filter (held on NVM; no flash I/O).
func (t *Table) MayContain(key []byte) bool {
	return t.filter.MayContain(key)
}

// blockBufPool recycles point-read block buffers: a Table.Get scans one
// block and materializes at most the hit, so the buffer never escapes.
var blockBufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, DefaultBlockSize)
		return &b
	},
}

// Get looks up key. A bloom-filter miss costs nothing; otherwise one data
// block is read from flash (through the page cache). Returns (rec, true) if
// found — including tombstones, which callers must check.
func (t *Table) Get(clk *simdev.Clock, key []byte) (Record, bool, error) {
	if !t.filter.MayContain(key) {
		return Record{}, false, nil
	}
	// Binary search for the first block whose lastKey ≥ key.
	lo, hi := 0, len(t.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.index[mid].lastKey, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(t.index) {
		return Record{}, false, nil
	}
	bp := blockBufPool.Get().(*[]byte)
	defer blockBufPool.Put(bp)
	blk, err := t.readBlockInto(clk, t.index[lo], bp)
	if err != nil {
		return Record{}, false, err
	}
	for len(blk) > 0 {
		rec, rest, err := decodeRecord(blk)
		if err != nil {
			return Record{}, false, err
		}
		switch bytes.Compare(rec.Key, key) {
		case 0:
			// Decode scans are views into the pooled buffer; only the hit
			// is materialized, into a single backing allocation.
			out := make([]byte, len(rec.Key)+len(rec.Value))
			copy(out, rec.Key)
			copy(out[len(rec.Key):], rec.Value)
			rec.Key = out[:len(rec.Key):len(rec.Key)]
			rec.Value = out[len(rec.Key):]
			return rec, true, nil
		case 1:
			return Record{}, false, nil
		}
		blk = rest
	}
	return Record{}, false, nil
}

// readBlock fetches a data block, charging flash I/O for page-cache misses.
func (t *Table) readBlock(clk *simdev.Clock, h blockHandle) ([]byte, error) {
	return t.readBlockInto(clk, h, nil)
}

// readBlockInto is readBlock reading into *bp's backing array when
// provided (growing it as needed).
func (t *Table) readBlockInto(clk *simdev.Clock, h blockHandle, bp *[]byte) ([]byte, error) {
	var buf []byte
	if bp != nil {
		if int64(cap(*bp)) < h.len {
			*bp = make([]byte, h.len)
		}
		buf = (*bp)[:h.len]
	} else {
		buf = make([]byte, h.len)
	}
	if err := t.file.ReadAt(buf, h.off); err != nil {
		return nil, err
	}
	if clk != nil {
		miss := int64(1 + (h.len-1)/simdev.PageSize)
		if t.cache != nil {
			miss = t.cache.Touch(t.file.Name(), h.off, h.len)
		}
		if miss > 0 {
			if t.tierCache != nil && t.tierDev != nil {
				// Pages absent from DRAM may still sit in the L2 tier.
				tierMiss := t.tierCache.Touch(t.file.Name(), h.off, h.len)
				if tierHits := miss - tierMiss; tierHits > 0 {
					t.tierDev.AccessClk(clk, simdev.OpRead, tierHits*simdev.PageSize)
				}
				if tierMiss > 0 {
					t.dev.AccessClk(clk, simdev.OpRead, tierMiss*simdev.PageSize)
					// Filling the L2 cache costs a tier write.
					t.tierDev.AccessClk(clk, simdev.OpWrite, tierMiss*simdev.PageSize)
				}
			} else {
				t.dev.AccessClk(clk, simdev.OpRead, miss*simdev.PageSize)
			}
		}
	}
	return buf, nil
}

// NumBlocks returns how many data blocks the table holds, so a scrubber
// can verify them one at a time with pacing in between.
func (t *Table) NumBlocks() int { return len(t.index) }

// VerifyBlock re-reads data block i and checks it against the CRC recorded
// in the index. The read bypasses the page cache and charges no clock — a
// scrub pass must not perturb the simulation's timing or cache state.
// ok=false with a nil error means the block's bytes no longer match their
// checksum: flash bit rot. Tables are immutable, so VerifyBlock is safe to
// call concurrently with reads as long as the caller holds a manifest
// snapshot reference keeping t alive.
func (t *Table) VerifyBlock(i int, buf []byte) (ok bool, _ []byte, err error) {
	if i < 0 || i >= len(t.index) {
		return false, buf, fmt.Errorf("sst: block %d out of range (table has %d)", i, len(t.index))
	}
	h := t.index[i]
	if int64(cap(buf)) < h.len {
		buf = make([]byte, h.len)
	}
	buf = buf[:h.len]
	if err := t.file.ReadAt(buf, h.off); err != nil {
		return false, buf, err
	}
	return crc32.Checksum(buf, blockCRCTable) == h.crc, buf, nil
}

// ReadAll streams every record to fn in key order, charging one sequential
// read of the data section. Compactions use this to merge tables.
//
// The data section is read into one buffer and the records passed to fn
// are views into it. With a nil arena the buffer is fresh and the views
// live as long as anything references them. Otherwise it is appended to
// *arena (grown as needed), so successive ReadAlls into one arena keep
// every earlier table's views intact; once the caller reuses the arena
// (resets it to [:0] for the next merge), all of them are invalid, and a
// record kept beyond that must be Cloned.
func (t *Table) ReadAll(clk *simdev.Clock, arena *[]byte, fn func(Record) error) error {
	var dataLen int64
	for _, h := range t.index {
		dataLen += h.len
	}
	if clk != nil {
		t.dev.AccessClk(clk, simdev.OpRead, dataLen)
	}
	var buf []byte
	if arena != nil {
		a := slices.Grow(*arena, int(dataLen))
		buf = a[len(a) : len(a)+int(dataLen)]
		*arena = a[:len(a)+int(dataLen)]
	} else {
		buf = make([]byte, dataLen)
	}
	var off int64
	for _, h := range t.index {
		if err := t.file.ReadAt(buf[off:off+h.len], h.off); err != nil {
			return err
		}
		off += h.len
	}
	for len(buf) > 0 {
		rec, rest, err := decodeRecord(buf)
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
		buf = rest
	}
	return nil
}

// Iter returns an iterator positioned at the first key ≥ start (nil = min).
// Block reads are charged lazily as the iterator crosses block boundaries;
// with prefetch enabled, sequential block reads are batched (modeling
// RocksDB's readahead, which PrismDB lacks — §7.2).
//
// Record views returned by an Iter built this way stay valid for the
// iterator's lifetime (each block batch gets a fresh buffer); callers that
// copy records out before advancing can use Reset instead to recycle the
// buffers.
func (t *Table) Iter(clk *simdev.Clock, start []byte, prefetch bool) *Iter {
	it := &Iter{}
	it.init(t, clk, start, prefetch, false)
	return it
}

// Reset repositions it onto table t at the first key ≥ start, reusing the
// iterator's block and record buffers (zero steady-state allocation for
// cursors that chain across a partition's disjoint tables). In exchange,
// advancing past a block batch — or Resetting again — invalidates every
// previously returned Record view; callers must copy out what they keep
// before calling Next. A zero-value Iter may be Reset directly.
func (it *Iter) Reset(t *Table, clk *simdev.Clock, start []byte, prefetch bool) {
	it.init(t, clk, start, prefetch, true)
}

func (it *Iter) init(t *Table, clk *simdev.Clock, start []byte, prefetch, reuse bool) {
	it.t, it.clk, it.prefetch, it.reuse = t, clk, prefetch, reuse
	it.blockIdx = -1
	it.err = nil
	it.seek(start)
}

// Iter iterates a table in key order.
type Iter struct {
	t        *Table
	clk      *simdev.Clock
	prefetch bool
	reuse    bool // recycle buf/recs across block loads (see Reset)

	blockIdx int
	buf      []byte // current block batch (reuse mode only)
	recs     []Record
	pos      int
	err      error
}

func (it *Iter) seek(start []byte) {
	idx := 0
	if start != nil {
		lo, hi := 0, len(it.t.index)
		for lo < hi {
			mid := (lo + hi) / 2
			if bytes.Compare(it.t.index[mid].lastKey, start) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		idx = lo
	}
	it.loadBlock(idx)
	if start != nil {
		for it.pos < len(it.recs) && bytes.Compare(it.recs[it.pos].Key, start) < 0 {
			it.pos++
		}
		if it.pos == len(it.recs) {
			it.loadBlock(it.blockIdx + 1)
		}
	}
}

func (it *Iter) loadBlock(idx int) {
	it.recs = it.recs[:0]
	it.pos = 0
	it.blockIdx = idx
	if idx >= len(it.t.index) {
		return
	}
	n := 1
	if it.prefetch {
		// Model readahead: fetch up to 8 blocks in one device request.
		if n = len(it.t.index) - idx; n > 8 {
			n = 8
		}
	}
	var total int64
	for i := 0; i < n; i++ {
		total += it.t.index[idx+i].len
	}
	var buf []byte
	if it.reuse {
		if int64(cap(it.buf)) < total {
			it.buf = make([]byte, total)
		}
		buf = it.buf[:total]
	} else {
		buf = make([]byte, total)
	}
	var off int64
	for i := 0; i < n; i++ {
		h := it.t.index[idx+i]
		if err := it.t.file.ReadAt(buf[off:off+h.len], h.off); err != nil {
			it.err = err
			return
		}
		if it.t.cache != nil {
			it.t.cache.Touch(it.t.file.Name(), h.off, h.len)
		}
		off += h.len
	}
	for len(buf) > 0 {
		rec, rest, err := decodeRecord(buf)
		if err != nil {
			it.err = err
			return
		}
		it.recs = append(it.recs, rec)
		buf = rest
	}
	it.blockIdx = idx + n - 1
	if it.clk != nil && total > 0 {
		it.t.dev.AccessClk(it.clk, simdev.OpRead, total)
	}
}

// Valid reports whether the iterator is positioned at a record.
func (it *Iter) Valid() bool { return it.err == nil && it.pos < len(it.recs) }

// Record returns the current record; only valid when Valid().
func (it *Iter) Record() Record { return it.recs[it.pos] }

// Next advances the iterator.
func (it *Iter) Next() {
	it.pos++
	if it.pos >= len(it.recs) && it.err == nil {
		it.loadBlock(it.blockIdx + 1)
	}
}

// Err returns any I/O error encountered.
func (it *Iter) Err() error { return it.err }
