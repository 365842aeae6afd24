package simdev

import (
	"fmt"
	"sort"
	"sync"
)

// File is a named byte store on a Device. It persists across engine
// restarts (the simulation's notion of durability), so crash-recovery tests
// reopen an engine against the same device and rebuild state from its files.
//
// File separates data movement from time accounting: the Read/Write methods
// move bytes and charge capacity, while callers charge device time through
// Device.Access with whatever clock-and-batching policy fits their layer
// (e.g. the slab layer charges one page write per Put; the SST layer charges
// one large sequential write per flush).
//
// Storage is a list of extents of at most extentBytes rather than one
// contiguous buffer: growing a file allocates new extents and never moves
// existing bytes. With a single backing slice, the append that extended a
// multi-MB slab file would periodically reallocate-and-copy the whole file
// — a multi-millisecond stall billed to whichever foreground write
// triggered the grow, which is exactly the class of latency artifact the
// simulation exists to measure honestly.
//
// Ownership: Device.WriteFile hands a whole buffer to an in-memory file,
// which keeps it as its extents (3-index slices cut at extentBytes
// boundaries) instead of copying it into zero-filled ones. From that call
// on the bytes belong to the file: the caller must neither modify nor
// reuse the buffer. Every other write copies its argument, and ReadAt
// always copies out, so a reader never aliases file storage.
type File struct {
	dev  *Device
	name string

	mu      sync.RWMutex
	size    int64
	extents [][]byte    // in-memory storage when back == nil
	back    BackingFile // real storage when the device has a Backing
}

// extentBytes is the file extent size. Slab files grow in 64 KiB steps and
// SSTs flush in one append, so 256 KiB keeps the extent count small while
// bounding any single allocation.
const extentBytes = 256 << 10

// ensure grows the extent list (zero-filled) to cover n bytes. Caller
// holds f.mu.
func (f *File) ensure(n int64) {
	need := int((n + extentBytes - 1) / extentBytes)
	if k := len(f.extents); k > 0 && int64(k-1)*extentBytes+int64(len(f.extents[k-1])) < n &&
		len(f.extents[k-1]) < extentBytes {
		// WriteFile's last extent ends at the data; widen it before the
		// file grows past it.
		ext := make([]byte, extentBytes)
		copy(ext, f.extents[k-1])
		f.extents[k-1] = ext
	}
	for len(f.extents) < need {
		f.extents = append(f.extents, make([]byte, extentBytes))
	}
}

// readLocked copies [off, off+len(buf)) into buf. Caller holds f.mu and
// has bounds-checked.
func (f *File) readLocked(buf []byte, off int64) {
	for len(buf) > 0 {
		ext := f.extents[off/extentBytes]
		n := copy(buf, ext[off%extentBytes:])
		buf = buf[n:]
		off += int64(n)
	}
}

// writeLocked copies data into [off, off+len(data)). Caller holds f.mu and
// has bounds-checked; extents must already cover the range.
func (f *File) writeLocked(data []byte, off int64) {
	for len(data) > 0 {
		ext := f.extents[off/extentBytes]
		n := copy(ext[off%extentBytes:], data)
		data = data[n:]
		off += int64(n)
	}
}

// CreateFile creates an empty file. It fails if the name exists.
func (d *Device) CreateFile(name string) (*File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; ok {
		return nil, fmt.Errorf("simdev: file %q already exists on %s", name, d.params.Name)
	}
	f := &File{dev: d, name: name}
	if d.backing != nil {
		bf, err := d.backing.Create(name)
		if err != nil {
			return nil, err
		}
		f.back = bf
	}
	d.files[name] = f
	return f, nil
}

// WriteFile creates the named file holding data, replacing any file of
// that name. An in-memory device takes ownership of data (see File): no
// byte is copied or padded, and the caller must not touch data afterwards.
// A device with a Backing creates the backing file and writes data to it.
// It reserves capacity like Append and fails, leaving no file, when the
// device is full.
func (d *Device) WriteFile(name string, data []byte) (*File, error) {
	if _, err := d.OpenFile(name); err == nil {
		if err := d.RemoveFile(name); err != nil {
			return nil, err
		}
	}
	n := int64(len(data))
	if err := d.allocate(n); err != nil {
		return nil, err
	}
	f, err := d.CreateFile(name)
	if err != nil {
		d.release(n)
		return nil, err
	}
	f.mu.Lock()
	if f.back != nil {
		err = f.back.WriteAt(data, 0)
	} else {
		f.extents = make([][]byte, 0, (len(data)+extentBytes-1)/extentBytes)
		for off := 0; off < len(data); off += extentBytes {
			end := min(off+extentBytes, len(data))
			f.extents = append(f.extents, data[off:end:end])
		}
	}
	if err == nil {
		f.size = n
	}
	f.mu.Unlock()
	if err != nil {
		d.release(n)
		_ = d.RemoveFile(name) // best effort: the write's error is the one to report
		return nil, err
	}
	return f, nil
}

// NextFileName returns a device-unique generated file name with the prefix.
func (d *Device) NextFileName(prefix string) string {
	d.mu.Lock()
	d.seq++
	n := d.seq
	d.mu.Unlock()
	return fmt.Sprintf("%s-%06d", prefix, n)
}

// OpenFile returns the named file, or an error if absent.
func (d *Device) OpenFile(name string) (*File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("simdev: file %q not found on %s", name, d.params.Name)
	}
	return f, nil
}

// RemoveFile deletes a file and releases its capacity.
func (d *Device) RemoveFile(name string) error {
	d.mu.Lock()
	f, ok := d.files[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("simdev: file %q not found on %s", name, d.params.Name)
	}
	delete(d.files, name)
	backing := d.backing
	d.mu.Unlock()
	f.mu.Lock()
	n := f.size
	f.size = 0
	f.extents = nil
	if f.back != nil {
		f.back.Close()
		f.back = nil
		backing.Remove(name)
	}
	f.mu.Unlock()
	d.release(n)
	return nil
}

// ListFiles returns the names of all files on the device, sorted. Recovery
// scans use this to discover slabs, SSTs, and manifests.
func (d *Device) ListFiles() []string {
	d.mu.Lock()
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	d.mu.Unlock()
	sort.Strings(names)
	return names
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Size returns the file's current length in bytes.
func (f *File) Size() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.size
}

// Truncate grows the file to n bytes (zero-filled), reserving capacity.
// Slab files preallocate their full extent this way. Shrinking is not
// supported; n smaller than the current size is a no-op.
func (f *File) Truncate(n int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	grow := n - f.size
	if grow <= 0 {
		return nil
	}
	if err := f.dev.allocate(grow); err != nil {
		return err
	}
	if f.back != nil {
		if err := f.back.Truncate(n); err != nil {
			f.dev.release(grow)
			return err
		}
	} else {
		f.ensure(n)
	}
	f.size = n
	return nil
}

// Append adds data to the end of the file and returns the offset where it
// was written. It reserves capacity and fails when the device is full.
func (f *File) Append(data []byte) (off int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.dev.allocate(int64(len(data))); err != nil {
		return 0, err
	}
	off = f.size
	if f.back != nil {
		if err := f.back.WriteAt(data, off); err != nil {
			f.dev.release(int64(len(data)))
			return 0, err
		}
	} else {
		f.ensure(off + int64(len(data)))
		f.writeLocked(data, off)
	}
	f.size = off + int64(len(data))
	return off, nil
}

// WriteAt overwrites len(data) bytes at off. The range must lie within the
// file's current size (in-place slab updates never extend the file).
func (f *File) WriteAt(data []byte, off int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 || off+int64(len(data)) > f.size {
		return fmt.Errorf("simdev: WriteAt [%d,%d) out of range for %q (size %d)",
			off, off+int64(len(data)), f.name, f.size)
	}
	if f.back != nil {
		return f.back.WriteAt(data, off)
	}
	f.writeLocked(data, off)
	return nil
}

// ReadAt fills buf from offset off. Short reads return an error; callers
// always know exact object extents from their indices.
func (f *File) ReadAt(buf []byte, off int64) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if off < 0 || off+int64(len(buf)) > f.size {
		return fmt.Errorf("simdev: ReadAt [%d,%d) out of range for %q (size %d)",
			off, off+int64(len(buf)), f.name, f.size)
	}
	if f.back != nil {
		return f.back.ReadAt(buf, off)
	}
	f.readLocked(buf, off)
	return nil
}

// Sync flushes the file's backing store to stable storage. It is a no-op
// for in-memory files: the simulation's durability is the process's
// lifetime. Checkpoints fsync slab files through this.
func (f *File) Sync() error {
	f.mu.RLock()
	back := f.back
	f.mu.RUnlock()
	if back == nil {
		return nil
	}
	return back.Sync()
}

// Device returns the device holding this file.
func (f *File) Device() *Device { return f.dev }
