package simdev

import (
	"bytes"
	"testing"
)

// TestWriteFileTakesOwnership checks that an in-memory WriteFile keeps the
// caller's buffer as the file's storage: the extents alias it, cut at
// extentBytes boundaries with nothing padded, and the call allocates a few
// small objects, never a copy of the data.
func TestWriteFileTakesOwnership(t *testing.T) {
	d := New(QLCParams(1 << 30))
	data := make([]byte, 2*extentBytes+1000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	f, err := d.WriteFile("f", data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != int64(len(data)) || d.Used() != int64(len(data)) {
		t.Fatalf("size %d, device used %d, want %d", f.Size(), d.Used(), len(data))
	}
	if len(f.extents) != 3 {
		t.Fatalf("%d extents, want 3", len(f.extents))
	}
	for i, ext := range f.extents {
		if &ext[0] != &data[i*extentBytes] {
			t.Fatalf("extent %d does not alias the written buffer", i)
		}
	}
	if last := f.extents[2]; len(last) != 1000 || cap(last) != 1000 {
		t.Fatalf("last extent len %d cap %d, want 1000/1000", len(last), cap(last))
	}
	got := make([]byte, len(data))
	if err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: err %v, equal %v", err, bytes.Equal(got, data))
	}

	big := make([]byte, 8<<20)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := d.WriteFile("big", big); err != nil {
			t.Fatal(err)
		}
	})
	// The File, its extent list, and map/string bookkeeping.
	if allocs > 4 {
		t.Fatalf("WriteFile of 8 MiB: %v allocs/op, want <= 4", allocs)
	}
}

// TestWriteFileReplacesAndGrows covers the rest of the contract: writing
// an existing name replaces the file and its capacity, and appending past
// a short last extent widens it rather than writing out of bounds.
func TestWriteFileReplacesAndGrows(t *testing.T) {
	d := New(QLCParams(1 << 30))
	if _, err := d.WriteFile("m", make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	f, err := d.WriteFile("m", []byte("manifest"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Used() != 8 || len(d.ListFiles()) != 1 {
		t.Fatalf("after replace: used %d, files %v", d.Used(), d.ListFiles())
	}
	tail := bytes.Repeat([]byte{'x'}, extentBytes)
	if off, err := f.Append(tail); err != nil || off != 8 {
		t.Fatalf("append: off %d err %v", off, err)
	}
	got := make([]byte, f.Size())
	if err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if want := append([]byte("manifest"), tail...); !bytes.Equal(got, want) {
		t.Fatal("append after WriteFile corrupted the file")
	}

	small := New(Params{Name: "tiny", Capacity: 100, Channels: 1, ReadBandwidth: 1 << 30, WriteBandwidth: 1 << 30})
	if _, err := small.WriteFile("x", make([]byte, 101)); err == nil {
		t.Fatal("WriteFile past capacity must fail")
	}
	if small.Used() != 0 || len(small.ListFiles()) != 0 {
		t.Fatalf("failed WriteFile left used %d, files %v", small.Used(), small.ListFiles())
	}
}
