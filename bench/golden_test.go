package bench

import (
	"runtime"
	"testing"
	"time"

	"github.com/prismdb/prismdb/workload"
)

// TestTable2PrismGolden pins Table 2's prismdb-het row on the serial
// driver at tinyScale with a fixed seed. Virtual time is a deterministic
// function of seed, workload and options, so every figure must match
// exactly: a change to the write path, the read-state fold or the device
// model that moves any of them shows up here.
func TestTable2PrismGolden(t *testing.T) {
	sc := tinyScale()
	wl, err := workload.YCSB('A', sc.Keys, sc.ValueSize, 0.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Setup{System: SysPrism, NVMFraction: 0.11}, sc, wl, "prismdb-het")
	if err != nil {
		t.Fatal(err)
	}
	got := golden{
		kops:      res.ThroughputKops,
		readP50:   res.ReadHist.Quantile(0.5),
		readP99:   res.ReadHist.Quantile(0.99),
		flashWamp: float64(res.FlashWritten) / float64(res.Prism.Puts*int64(sc.ValueSize)),
	}
	want := golden{kops: 48.05754294854555, readP50: 3200 * time.Nanosecond, readP99: 393216 * time.Nanosecond, flashWamp: 15.1516669921875}
	if got != want {
		t.Fatalf("serial virtual figures moved:\n got %#v\nwant %#v", got, want)
	}
}

// golden is the exact serial outcome of one run: measured throughput, read
// p50/p99, and flash bytes written per user value byte put.
type golden struct {
	kops             float64
	readP50, readP99 time.Duration
	flashWamp        float64
}

// TestRunReleasesEngine checks that Run closes the engine it builds: the
// goroutine count after repeated serial and parallel runs returns to where
// it started, instead of growing by every leaked compaction worker and
// write owner (and the whole DB they keep reachable).
func TestRunReleasesEngine(t *testing.T) {
	sc := tinyScale()
	wl, err := workload.YCSB('A', sc.Keys, sc.ValueSize, 0.99, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for _, parallel := range []bool{false, true, false, true} {
		setup := Setup{System: SysPrism, NVMFraction: 1.0 / 6, ParallelDriver: parallel}
		if _, err := Run(setup, sc, wl, "leak"); err != nil {
			t.Fatal(err)
		}
	}
	// Close waits for every engine goroutine to signal its exit; give the
	// last few the moment they need to return after that signal.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > base {
		t.Fatalf("%d goroutines after four runs, %d before: Run leaks its engine", n, base)
	}
}
