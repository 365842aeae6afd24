package bench

import (
	"fmt"
	"testing"

	"github.com/prismdb/prismdb/workload"
)

// TestDeleteHeavyChurn drives the ~25%-DEL YCSB-style mix through the
// bench Engine — a workload shape the suite never exercised before — and
// pins three invariants over the measured phase, in both compaction modes:
//
//   - stats accounting: Puts+Gets+Deletes+Scans equals exactly the ops
//     issued (RMW aside, which this mix has none of);
//   - tombstone progress: delete churn over a two-tier dataset must
//     annihilate tombstones (DroppedTombstones advances), not pin them;
//   - space safety: NVM usage ends under the high watermark once
//     compactions settle.
func TestDeleteHeavyChurn(t *testing.T) {
	for _, mode := range []string{"sync", "async"} {
		t.Run(mode, func(t *testing.T) {
			sc := Scale{Keys: 4000, Ops: 12000, WarmupOps: 2000, ValueSize: 512}
			wl := workload.DeleteHeavy(sc.Keys, sc.ValueSize, 0.99, 1)
			setup := Setup{System: SysPrism, NVMFraction: 1.0 / 6, Partitions: 4, Compaction: mode}
			r, err := build(setup, sc, wl)
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			gen := workload.NewGenerator(wl)
			for i := 0; i < sc.Keys; i++ {
				if _, err := r.eng.Put(gen.LoadKey(i), gen.LoadValue(i)); err != nil {
					t.Fatalf("load: %v", err)
				}
			}
			if err := r.driveOps(gen, sc.WarmupOps, nil, nil, nil); err != nil {
				t.Fatalf("warmup: %v", err)
			}
			r.eng.AdvanceAll()
			r.eng.ResetStats()
			if err := r.driveOps(gen, sc.Ops, nil, nil, nil); err != nil {
				t.Fatalf("measure: %v", err)
			}
			r.eng.AdvanceAll() // drains async workers before reading stats

			st := r.prism.Stats()
			if got := st.Puts + st.Gets + st.Deletes + st.Scans; got != int64(sc.Ops) {
				t.Fatalf("stats invariant broken: Puts %d + Gets %d + Deletes %d + Scans %d = %d, issued %d",
					st.Puts, st.Gets, st.Deletes, st.Scans, got, sc.Ops)
			}
			if st.Deletes < int64(sc.Ops)/5 {
				t.Fatalf("mix not delete-heavy: %d deletes of %d ops", st.Deletes, sc.Ops)
			}
			if st.DroppedTombstones == 0 {
				t.Fatalf("no tombstones annihilated under delete-heavy churn: %+v", st)
			}
			used, budget := r.prism.NVMUsage()
			high := int64(float64(budget) * r.prism.Options().HighWatermark)
			if used > high {
				t.Fatalf("NVM usage %d above high watermark %d (budget %d) after settling", used, high, budget)
			}
		})
	}
}

// TestAsyncSerialBenchFidelity runs YCSB-A, -B, and -E through the serial
// lockstep driver in sync and async compaction modes and requires the
// simulated time of the measured phase to agree within a modest band: the
// background worker must preserve the virtual-time model (BG clock,
// compEndAt serialization, space-credit maturation), diverging only
// through job start times and selection state. Both sides are measured to
// a settled state (AdvanceAll: workers drained, compaction horizons
// folded in), so in-flight work at the phase edge — which sync pays
// inline but async would otherwise defer past the measurement — cannot
// skew the comparison.
func TestAsyncSerialBenchFidelity(t *testing.T) {
	sc := Scale{Keys: 6000, Ops: 9000, WarmupOps: 3000, ValueSize: 512}
	for _, w := range []byte{'A', 'B', 'E'} {
		w := w
		t.Run(fmt.Sprintf("ycsb-%c", w), func(t *testing.T) {
			run := func(mode string) float64 {
				wl, err := workload.YCSB(w, sc.Keys, sc.ValueSize, 0.99, 1)
				if err != nil {
					t.Fatal(err)
				}
				r, err := build(Setup{System: SysPrism, NVMFraction: 1.0 / 6, Partitions: 4, Compaction: mode}, sc, wl)
				if err != nil {
					t.Fatal(err)
				}
				defer r.close()
				gen := workload.NewGenerator(wl)
				for i := 0; i < sc.Keys; i++ {
					if _, err := r.eng.Put(gen.LoadKey(i), gen.LoadValue(i)); err != nil {
						t.Fatalf("load: %v", err)
					}
				}
				if err := r.driveOps(gen, sc.WarmupOps, nil, nil, nil); err != nil {
					t.Fatalf("warmup: %v", err)
				}
				r.eng.AdvanceAll()
				start := r.eng.Elapsed()
				if err := r.driveOps(gen, sc.Ops, nil, nil, nil); err != nil {
					t.Fatalf("measure: %v", err)
				}
				r.eng.AdvanceAll()
				return (r.eng.Elapsed() - start).Seconds()
			}
			syncSec := run("sync")
			asyncSec := run("async")
			ratio := asyncSec / syncSec
			// Async may come out FASTER in virtual time on write-heavy
			// mixes: compaction volume is near-identical (same watermarks,
			// same ranges), but inline merges force the next credit-dry
			// writer to absorb the whole merge duration as a stall, while
			// background merges overlap it with foreground progress — the
			// effect background compaction exists to buy, bounded by the
			// unchanged §4.2 admission model. Scan-heavy E can run SLOWER
			// async (promotion decisions batch at merge boundaries instead
			// of incrementally, shifting what lands on NVM under the read
			// trigger) and its ratio swings with background job start
			// times. At this CI scale the tiny NVM budget sits near a
			// demotion threshold, so small model changes move the stall
			// count a lot: charging the per-block index CRC against NVM
			// (4 bytes/handle, added with the scrubber) widened A to
			// ~25-28% async-faster and E swings ~±30% run to run. Beyond
			// ±~35% would mean the virtual-time model broke.
			t.Logf("sync %.4fs async %.4fs ratio %.3f", syncSec, asyncSec, ratio)
			if ratio < 0.65 || ratio > 1.35 {
				t.Fatalf("async serial virtual time diverged from sync: sync %.4fs, async %.4fs (ratio %.3f)",
					syncSec, asyncSec, ratio)
			}
		})
	}
}
