package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/prismdb/prismdb/internal/core"
	"github.com/prismdb/prismdb/internal/msc"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/workload"
)

// Table1 prints the device-characteristics table (Table 1): rated
// endurance, cost, and the measured 4 KB random-read latency of the
// simulated devices.
func Table1(w io.Writer) error {
	fmt.Fprintln(w, "Table 1: NVM (Optane SSD) vs dense flash (QLC)")
	devs := []struct {
		name string
		p    simdev.Params
	}{
		{"NVM", simdev.NVMParams(1 << 30)},
		{"QLC", simdev.QLCParams(1 << 30)},
	}
	rows := [][]string{}
	for _, d := range devs {
		dev := simdev.New(d.p)
		clk := simdev.NewClock()
		dev.AccessClk(clk, simdev.OpRead, 4096)
		rows = append(rows, []string{
			d.name,
			fmt.Sprintf("%.1f", d.p.DWPD),
			fmt.Sprintf("$%.2f", d.p.CostPerGB),
			us(clk.Elapsed()),
		})
	}
	table(w, []string{"device", "lifetime(DWPD)", "cost($/GB)", "avg 4KB read"}, rows)
	return nil
}

// Table2 compares single-tier and multi-tier configurations on YCSB-A with
// Zipf 0.8 (Table 2): RocksDB on NVM, QLC, and het, and PrismDB het.
func Table2(w io.Writer, sc Scale) ([]*Result, error) {
	wl, _ := workload.YCSB('A', sc.Keys, sc.ValueSize, 0.8, 1)
	runs := []struct {
		label string
		setup Setup
	}{
		{"rocksdb-nvm", Setup{System: SysRocks, SingleTier: TierNVM}},
		{"rocksdb-qlc", Setup{System: SysRocks, SingleTier: TierQLC}},
		{"rocksdb-het", Setup{System: SysRocks, NVMFraction: 0.11}},
		{"prismdb-het", Setup{System: SysPrism, NVMFraction: 0.11}},
	}
	fmt.Fprintln(w, "Table 2: single-tier vs multi-tier (YCSB-A, Zipf 0.8; het = 11% NVM)")
	var out []*Result
	rows := [][]string{}
	for _, r := range runs {
		res, err := Run(r.setup, sc, wl, r.label)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
		rows = append(rows, []string{r.label, f1(res.ThroughputKops), "$" + f2(res.CostPerGB)})
	}
	table(w, []string{"config", "tput(Kops/s)", "cost($/GB)"}, rows)
	return out, nil
}

// Fig2 reproduces the multi-tier RocksDB breakdowns of §3: (a) share of
// compaction time spent in the NVM tier vs QLC, and (b) the distribution
// of reads across memtable, block cache, and levels.
func Fig2(w io.Writer, sc Scale) (*Result, error) {
	wl, _ := workload.YCSB('A', sc.Keys, sc.ValueSize, 0.99, 1)
	res, err := Run(Setup{System: SysRocks, NVMFraction: 1.0 / 6}, sc, wl, "rocksdb-het")
	if err != nil {
		return nil, err
	}
	st := res.LSM
	totalComp := st.CompactionTimeNVM + st.CompactionTimeFlash
	fmt.Fprintln(w, "Fig 2a: compaction time share by tier (multi-tier RocksDB, YCSB-A)")
	if totalComp > 0 {
		table(w, []string{"tier", "percent"}, [][]string{
			{"nvm", f1(100 * float64(st.CompactionTimeNVM) / float64(totalComp))},
			{"qlc", f1(100 * float64(st.CompactionTimeFlash) / float64(totalComp))},
		})
	}
	fmt.Fprintln(w, "Fig 2b: read distribution across sources")
	var totalReads int64 = st.ReadsMemtable + st.ReadsBlockCache + st.ReadsMiss
	for _, n := range st.ReadsPerLevel {
		totalReads += n
	}
	rows := [][]string{
		{"memtable", f1(100 * float64(st.ReadsMemtable) / float64(totalReads))},
		{"blockcache", f1(100 * float64(st.ReadsBlockCache) / float64(totalReads))},
	}
	for i, n := range st.ReadsPerLevel {
		rows = append(rows, []string{fmt.Sprintf("L%d", i), f1(100 * float64(n) / float64(totalReads))})
	}
	table(w, []string{"source", "percent"}, rows)
	return res, nil
}

// Fig5 records the tracker's clock-value distribution under four YCSB
// workloads (Fig 5) by running each against PrismDB and reading the
// distribution.
func Fig5(w io.Writer, sc Scale) (map[string][4]float64, error) {
	fmt.Fprintln(w, "Fig 5: clock value distributions (percent of tracked keys)")
	out := map[string][4]float64{}
	rows := [][]string{}
	for _, wb := range []byte{'A', 'B', 'D', 'F'} {
		wl, _ := workload.YCSB(wb, sc.Keys, sc.ValueSize, 0.99, 1)
		dist, err := clockDistribution(sc, wl)
		if err != nil {
			return nil, err
		}
		total := 0
		for _, n := range dist {
			total += n
		}
		var pct [4]float64
		row := []string{string(rune(wb))}
		for v := 0; v < 4; v++ {
			if total > 0 {
				pct[v] = 100 * float64(dist[v]) / float64(total)
			}
			row = append(row, f1(pct[v]))
		}
		out["ycsb-"+string(rune(wb|0x20))] = pct
		rows = append(rows, row)
	}
	table(w, []string{"workload", "clk-0%", "clk-1%", "clk-2%", "clk-3%"}, rows)
	return out, nil
}

// clockDistribution loads and runs wl against PrismDB and returns the
// tracker's clock-value histogram.
func clockDistribution(sc Scale, wl workload.Config) ([4]int, error) {
	r, err := build(Setup{System: SysPrism, NVMFraction: 1.0 / 6}, sc, wl)
	if err != nil {
		return [4]int{}, err
	}
	defer r.close()
	gen := workload.NewGenerator(wl)
	for i := 0; i < sc.Keys; i++ {
		r.eng.Put(gen.LoadKey(i), gen.LoadValue(i))
	}
	for i := 0; i < sc.Ops; i++ {
		if err := applyOp(r.eng, gen.Next(), nil, nil, nil); err != nil {
			return [4]int{}, err
		}
	}
	return r.prism.ClockDistribution(), nil
}

// Fig6 compares precise-MSC, approx-MSC, and random-selection on YCSB-A
// Zipf 0.99: throughput, flash write I/O, and average compaction time.
func Fig6(w io.Writer, sc Scale) (map[string]*Result, error) {
	wl, _ := workload.YCSB('A', sc.Keys, sc.ValueSize, 0.99, 1)
	fmt.Fprintln(w, "Fig 6: MSC policy comparison (YCSB-A, Zipf 0.99)")
	out := map[string]*Result{}
	rows := [][]string{}
	for _, pol := range []msc.Policy{msc.Precise, msc.Approx, msc.Random} {
		res, err := Run(Setup{System: SysPrism, NVMFraction: 1.0 / 6, Policy: pol}, sc, wl, pol.String())
		if err != nil {
			return nil, err
		}
		out[pol.String()] = res
		avgComp := time.Duration(0)
		if res.Prism.Compactions > 0 {
			avgComp = res.Prism.CompactionTime / time.Duration(res.Prism.Compactions)
		}
		rows = append(rows, []string{
			pol.String(),
			f1(res.ThroughputKops),
			fmt.Sprintf("%.1f", float64(res.FlashWritten)/(1<<20)),
			fmt.Sprintf("%.2fms", avgComp.Seconds()*1000),
		})
	}
	table(w, []string{"policy", "tput(Kops/s)", "flash write(MB)", "avg compaction"}, rows)
	return out, nil
}

// Fig9 sweeps throughput vs storage cost across seven configurations and
// five systems (Fig 9).
func Fig9(w io.Writer, sc Scale) (map[string]*Result, error) {
	wl, _ := workload.YCSB('A', sc.Keys, sc.ValueSize, 0.99, 1)
	fmt.Fprintln(w, "Fig 9: throughput vs storage cost (YCSB-A, Zipf 0.99)")
	runs := []struct {
		label string
		setup Setup
	}{
		{"rocksdb-qlc", Setup{System: SysRocks, SingleTier: TierQLC}},
		{"rocksdb-tlc", Setup{System: SysRocks, SingleTier: TierTLC}},
		{"rocksdb-nvm", Setup{System: SysRocks, SingleTier: TierNVM}},
		{"rocksdb-het5", Setup{System: SysRocks, NVMFraction: 0.05}},
		{"rocksdb-het10", Setup{System: SysRocks, NVMFraction: 0.11}},
		{"rocksdb-het20", Setup{System: SysRocks, NVMFraction: 0.20}},
		{"rocksdb-het50", Setup{System: SysRocks, NVMFraction: 0.50}},
		{"rocksdb-l2c", Setup{System: SysRocksL2C, NVMFraction: 0.11}},
		{"rocksdb-RA", Setup{System: SysRocksRA, NVMFraction: 0.11}},
		{"mutant", Setup{System: SysMutant, NVMFraction: 0.11}},
		{"prismdb-het5", Setup{System: SysPrism, NVMFraction: 0.05}},
		{"prismdb-het10", Setup{System: SysPrism, NVMFraction: 0.11}},
		{"prismdb-het20", Setup{System: SysPrism, NVMFraction: 0.20}},
		{"prismdb-het50", Setup{System: SysPrism, NVMFraction: 0.50}},
	}
	out := map[string]*Result{}
	rows := [][]string{}
	for _, r := range runs {
		res, err := Run(r.setup, sc, wl, r.label)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.label, err)
		}
		out[r.label] = res
		rows = append(rows, []string{r.label, "$" + f2(res.CostPerGB), f1(res.ThroughputKops)})
	}
	table(w, []string{"config", "cost($/GB)", "tput(Kops/s)"}, rows)
	return out, nil
}

// Fig10 sweeps YCSB A–F for the main systems: throughput plus median and
// p99 latency normalized to RocksDB (Fig 10).
func Fig10(w io.Writer, sc Scale) (map[string]map[byte]*Result, error) {
	fmt.Fprintln(w, "Fig 10: YCSB sweep (Zipf 0.99; latency normalized to rocksdb-het)")
	systems := []struct {
		label string
		setup Setup
	}{
		{"rocksdb", Setup{System: SysRocks, NVMFraction: 1.0 / 6}},
		{"rocksdb-l2c", Setup{System: SysRocksL2C, NVMFraction: 1.0 / 6}},
		{"mutant", Setup{System: SysMutant, NVMFraction: 1.0 / 6}},
		{"prismdb", Setup{System: SysPrism, NVMFraction: 1.0 / 6}},
	}
	out := map[string]map[byte]*Result{}
	rows := [][]string{}
	for _, wb := range []byte{'A', 'B', 'C', 'D', 'E', 'F'} {
		wl, _ := workload.YCSB(wb, sc.Keys, sc.ValueSize, 0.99, 1)
		var base *Result
		for _, sys := range systems {
			res, err := Run(sys.setup, sc, wl, fmt.Sprintf("%s/ycsb-%c", sys.label, wb))
			if err != nil {
				return nil, fmt.Errorf("%s ycsb-%c: %w", sys.label, wb, err)
			}
			if out[sys.label] == nil {
				out[sys.label] = map[byte]*Result{}
			}
			out[sys.label][wb] = res
			if sys.label == "rocksdb" {
				base = res
			}
			nMed, nP99 := 1.0, 1.0
			if base != nil && base.MeanLatency > 0 {
				h, bh := res.ReadHist, base.ReadHist
				if wb == 'E' {
					h, bh = res.ScanHist, base.ScanHist
				}
				if bh.Quantile(0.5) > 0 {
					nMed = float64(h.Quantile(0.5)) / float64(bh.Quantile(0.5))
				}
				if bh.Quantile(0.99) > 0 {
					nP99 = float64(h.Quantile(0.99)) / float64(bh.Quantile(0.99))
				}
			}
			rows = append(rows, []string{
				fmt.Sprintf("ycsb-%c", wb), sys.label,
				f1(res.ThroughputKops), f2(nMed), f2(nP99),
			})
		}
	}
	table(w, []string{"workload", "system", "tput(Kops/s)", "norm-p50", "norm-p99"}, rows)
	return out, nil
}

// Fig11 sweeps the zipfian parameter on YCSB-A: p50/p99 read and update
// latency for PrismDB vs multi-tier RocksDB (Fig 11).
func Fig11(w io.Writer, sc Scale) (map[string]map[string]*Result, error) {
	fmt.Fprintln(w, "Fig 11: skew sweep (YCSB-A)")
	thetas := []struct {
		name  string
		theta float64
		unif  bool
	}{
		{"unif", 0, true}, {"0.4", 0.4, false}, {"0.6", 0.6, false},
		{"0.8", 0.8, false}, {"0.99", 0.99, false}, {"1.2", 1.2, false}, {"1.4", 1.4, false},
	}
	out := map[string]map[string]*Result{"rocksdb": {}, "prismdb": {}}
	rows := [][]string{}
	for _, th := range thetas {
		wl, _ := workload.YCSB('A', sc.Keys, sc.ValueSize, th.theta, 1)
		if th.unif {
			wl.Dist = workload.DistUniform
		}
		for _, sys := range []struct {
			label string
			setup Setup
		}{
			{"rocksdb", Setup{System: SysRocks, NVMFraction: 1.0 / 6}},
			{"prismdb", Setup{System: SysPrism, NVMFraction: 1.0 / 6}},
		} {
			res, err := Run(sys.setup, sc, wl, sys.label+"/"+th.name)
			if err != nil {
				return nil, err
			}
			out[sys.label][th.name] = res
			rows = append(rows, []string{
				th.name, sys.label,
				us(res.ReadHist.Quantile(0.5)), us(res.ReadHist.Quantile(0.99)),
				us(res.UpdateHist.Quantile(0.5)), us(res.UpdateHist.Quantile(0.99)),
			})
		}
	}
	table(w, []string{"zipf", "system", "read-p50", "read-p99", "upd-p50", "upd-p99"}, rows)
	return out, nil
}

// Fig12 evaluates QLC lifetime under different workload write intensities
// (Fig 12): write amplification is measured from a PrismDB run, then the
// endurance model projects drive lifetime for a 600 GB deployment at
// production request rates, annotated with the three applications the
// paper highlights (from Cao et al., FAST'20).
func Fig12(w io.Writer, sc Scale) (map[string]float64, error) {
	wl, _ := workload.YCSB('A', sc.Keys, sc.ValueSize, 0.99, 1)
	res, err := Run(Setup{System: SysPrism, NVMFraction: 1.0 / 6}, sc, wl, "wa-probe")
	if err != nil {
		return nil, err
	}
	clientWriteBytes := float64(res.UpdateHist.Count()) * float64(sc.ValueSize)
	wa := 1.0
	if clientWriteBytes > 0 {
		wa = float64(res.FlashWritten) / clientWriteBytes
	}
	if wa < 0.1 {
		wa = 0.1 // pinning may absorb nearly all writes at small scale
	}
	const (
		dbBytes   = 600 << 30 // 600 GB deployment (§7.2)
		reqPerSec = 50000.0   // production request rate (Cao et al.)
		objBytes  = 1024.0
	)
	qlc := simdev.New(simdev.QLCParams(dbBytes))
	tbw := qlc.TotalWriteBudget()
	apps := []struct {
		name      string
		writeFrac float64
	}{
		{"UP2X", 0.90}, {"ZippyDB", 0.25}, {"UDB", 0.08},
		{"w10%", 0.10}, {"w50%", 0.50}, {"w90%", 0.90}, {"w1%", 0.01},
	}
	fmt.Fprintf(w, "Fig 12: QLC lifetime (600GB DB, %.0f ops/s, measured flash WA=%.2f)\n", reqPerSec, wa)
	out := map[string]float64{}
	rows := [][]string{}
	for _, a := range apps {
		bytesPerDay := reqPerSec * a.writeFrac * objBytes * wa * 86400
		years := tbw / bytesPerDay / 365
		if years > 10 {
			years = 10 // plot cap, as in the figure
		}
		out[a.name] = years
		rows = append(rows, []string{a.name, fmt.Sprintf("%.0f%%", a.writeFrac*100), f2(years)})
	}
	table(w, []string{"workload", "write share", "lifetime(years, cap 10)"}, rows)
	return out, nil
}

// Fig13 compares throughput and normalized p99 with fsync enabled
// (Fig 13): RocksDB group commit, SpanDB SPDK logging, PrismDB synchronous
// slabs, on YCSB-A and YCSB-B.
func Fig13(w io.Writer, sc Scale) (map[string]map[byte]*Result, error) {
	fmt.Fprintln(w, "Fig 13: fsync-enabled performance (p99 normalized to rocksdb)")
	out := map[string]map[byte]*Result{}
	rows := [][]string{}
	for _, wb := range []byte{'A', 'B'} {
		wl, _ := workload.YCSB(wb, sc.Keys, sc.ValueSize, 0.99, 1)
		var base *Result
		for _, sys := range []struct {
			label string
			setup Setup
		}{
			{"rocksdb", Setup{System: SysRocks, NVMFraction: 1.0 / 6, FsyncWAL: true}},
			{"spandb", Setup{System: SysSpanDB, NVMFraction: 1.0 / 6, FsyncWAL: true}},
			{"prismdb", Setup{System: SysPrism, NVMFraction: 1.0 / 6}}, // always durable
		} {
			res, err := Run(sys.setup, sc, wl, fmt.Sprintf("%s/ycsb-%c", sys.label, wb))
			if err != nil {
				return nil, err
			}
			if out[sys.label] == nil {
				out[sys.label] = map[byte]*Result{}
			}
			out[sys.label][wb] = res
			if sys.label == "rocksdb" {
				base = res
			}
			norm := 1.0
			if base != nil && base.UpdateHist.Quantile(0.99) > 0 {
				norm = float64(res.UpdateHist.Quantile(0.99)) / float64(base.UpdateHist.Quantile(0.99))
			}
			rows = append(rows, []string{
				fmt.Sprintf("ycsb-%c", wb), sys.label, f1(res.ThroughputKops), f2(norm),
			})
		}
	}
	table(w, []string{"workload", "system", "tput(Kops/s)", "norm-p99(update)"}, rows)
	return out, nil
}

// Fig14a prints the read-latency CDF on YCSB-B for PrismDB vs multi-tier
// RocksDB (Fig 14a).
func Fig14a(w io.Writer, sc Scale) (map[string]*Result, error) {
	wl, _ := workload.YCSB('B', sc.Keys, sc.ValueSize, 0.99, 1)
	fmt.Fprintln(w, "Fig 14a: read latency CDF (YCSB-B)")
	out := map[string]*Result{}
	rows := [][]string{}
	for _, sys := range []struct {
		label string
		setup Setup
	}{
		{"rocksdb", Setup{System: SysRocks, NVMFraction: 1.0 / 6}},
		{"prismdb", Setup{System: SysPrism, NVMFraction: 1.0 / 6}},
	} {
		res, err := Run(sys.setup, sc, wl, sys.label)
		if err != nil {
			return nil, err
		}
		out[sys.label] = res
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
			rows = append(rows, []string{sys.label, fmt.Sprintf("p%g", q*100), us(res.ReadHist.Quantile(q))})
		}
	}
	table(w, []string{"system", "quantile", "latency"}, rows)
	return out, nil
}

// Fig14bPoint is one timeline sample of the promotions experiment.
type Fig14bPoint struct {
	Ops          int
	ThroughputK  float64
	NVMReadRatio float64
}

// Fig14b measures the effect of promotions under read-only YCSB-C: with
// promotions enabled the NVM read ratio climbs over time, lifting
// throughput (Fig 14b).
func Fig14b(w io.Writer, sc Scale) (map[string][]Fig14bPoint, error) {
	fmt.Fprintln(w, "Fig 14b: promotions under read-only YCSB-C (timeline)")
	out := map[string][]Fig14bPoint{}
	rows := [][]string{}
	for _, variant := range []struct {
		label   string
		disable bool
	}{
		{"noprom", true},
		{"prom", false},
	} {
		pts, err := promotionTimeline(sc, variant.disable)
		if err != nil {
			return nil, err
		}
		for _, pt := range pts {
			rows = append(rows, []string{variant.label, fmt.Sprintf("%d", pt.Ops),
				f1(pt.ThroughputK), f2(pt.NVMReadRatio)})
		}
		out[variant.label] = pts
	}
	table(w, []string{"variant", "ops", "tput(Kops/s)", "nvm read ratio"}, rows)
	return out, nil
}

// promotionTimeline loads YCSB-C and runs it in eight segments, reporting
// each segment's throughput and NVM read ratio.
func promotionTimeline(sc Scale, disablePromotions bool) ([]Fig14bPoint, error) {
	wl, _ := workload.YCSB('C', sc.Keys, sc.ValueSize, 0.99, 1)
	r, err := build(Setup{System: SysPrism, NVMFraction: 1.0 / 6, DisablePromotions: disablePromotions}, sc, wl)
	if err != nil {
		return nil, err
	}
	defer r.close()
	gen := workload.NewGenerator(wl)
	for i := 0; i < sc.Keys; i++ {
		r.eng.Put(gen.LoadKey(i), gen.LoadValue(i))
	}
	const segments = 8
	segOps := sc.Ops / segments
	var pts []Fig14bPoint
	for seg := 0; seg < segments; seg++ {
		r.prism.ResetStats()
		before := r.eng.Elapsed()
		for i := 0; i < segOps; i++ {
			if err := applyOp(r.eng, gen.Next(), nil, nil, nil); err != nil {
				return nil, err
			}
		}
		elapsed := r.eng.Elapsed() - before
		st := r.prism.Stats()
		pt := Fig14bPoint{Ops: (seg + 1) * segOps, NVMReadRatio: st.NVMReadRatio()}
		if elapsed > 0 {
			pt.ThroughputK = float64(segOps) / elapsed.Seconds() / 1000
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// Fig14c sweeps the pinning threshold for a read-heavy, balanced, and
// write-heavy mix (Fig 14c).
func Fig14c(w io.Writer, sc Scale) (map[string]map[int]*Result, error) {
	fmt.Fprintln(w, "Fig 14c: pinning threshold sweep")
	mixes := []struct {
		name string
		mix  workload.Mix
	}{
		{"5/95", workload.Mix{Read: 0.05, Update: 0.95}},
		{"50/50", workload.Mix{Read: 0.5, Update: 0.5}},
		{"95/5", workload.Mix{Read: 0.95, Update: 0.05}},
	}
	out := map[string]map[int]*Result{}
	rows := [][]string{}
	for _, m := range mixes {
		out[m.name] = map[int]*Result{}
		for _, pct := range []int{1, 25, 50, 70, 90} {
			wl := workload.Config{
				Name: "pin-sweep", Keys: sc.Keys, Mix: m.mix,
				Dist: workload.DistZipfian, Theta: 0.99,
				ValueSize: sc.ValueSize, Seed: 1,
			}
			res, err := Run(Setup{
				System: SysPrism, NVMFraction: 1.0 / 6,
				PinningThreshold: float64(pct) / 100,
			}, sc, wl, fmt.Sprintf("%s@%d%%", m.name, pct))
			if err != nil {
				return nil, err
			}
			out[m.name][pct] = res
			rows = append(rows, []string{m.name, fmt.Sprintf("%d%%", pct), f1(res.ThroughputKops)})
		}
	}
	table(w, []string{"mix(r/w)", "pin threshold", "tput(Kops/s)"}, rows)
	return out, nil
}

// Fig14d scales the partition count on YCSB-A (Fig 14d).
func Fig14d(w io.Writer, sc Scale) (map[int]*Result, error) {
	fmt.Fprintln(w, "Fig 14d: throughput vs partitions (YCSB-A)")
	wl, _ := workload.YCSB('A', sc.Keys, sc.ValueSize, 0.99, 1)
	out := map[int]*Result{}
	rows := [][]string{}
	for _, parts := range []int{1, 2, 4, 8, 16} {
		res, err := Run(Setup{System: SysPrism, NVMFraction: 1.0 / 6, Partitions: parts},
			sc, wl, fmt.Sprintf("p=%d", parts))
		if err != nil {
			return nil, err
		}
		out[parts] = res
		rows = append(rows, []string{fmt.Sprintf("%d", parts), f1(res.ThroughputKops)})
	}
	table(w, []string{"partitions", "tput(Kops/s)"}, rows)
	return out, nil
}

// Table5 runs the three Twitter production-trace equivalents on multi-tier
// RocksDB and PrismDB (Table 5).
func Table5(w io.Writer, sc Scale) (map[string]map[string]*Result, error) {
	fmt.Fprintln(w, "Table 5: Twitter production workloads")
	out := map[string]map[string]*Result{}
	rows := [][]string{}
	for _, trace := range []string{"cluster39", "cluster19", "cluster51"} {
		wl, err := workload.Twitter(trace, sc.Keys, 1)
		if err != nil {
			return nil, err
		}
		out[trace] = map[string]*Result{}
		for _, sys := range []struct {
			label string
			setup Setup
		}{
			{"rocksdb", Setup{System: SysRocks, NVMFraction: 1.0 / 6}},
			{"prismdb", Setup{System: SysPrism, NVMFraction: 1.0 / 6}},
		} {
			res, err := Run(sys.setup, sc, wl, sys.label+"/"+trace)
			if err != nil {
				return nil, err
			}
			out[trace][sys.label] = res
			rows = append(rows, []string{trace, sys.label,
				f1(res.ThroughputKops), us(res.UpdateHist.Mean())})
		}
	}
	table(w, []string{"trace", "system", "tput(Kops/s)", "avg put latency"}, rows)
	return out, nil
}

// YCSBE runs the scan-heavy YCSB-E mix on PrismDB through both drivers and
// the LSM baselines through their client scheduler: the focused view of the
// workload this repo's iterator subsystem exists for. The serial/parallel
// PrismDB pair doubles as a live check of scan clock ownership — the two
// rows' simulated throughput must agree within a few percent, since scans
// charge only their issuing partition's clock.
func YCSBE(w io.Writer, sc Scale) (map[string]*Result, error) {
	fmt.Fprintln(w, "YCSB-E: scan-heavy mix (95% scans, max scan length 100)")
	wl, _ := workload.YCSB('E', sc.Keys, sc.ValueSize, 0.99, 1)
	out := map[string]*Result{}
	rows := [][]string{}
	for _, sys := range []struct {
		label string
		setup Setup
	}{
		{"rocksdb", Setup{System: SysRocks, NVMFraction: 1.0 / 6}},
		{"rocksdb-l2c", Setup{System: SysRocksL2C, NVMFraction: 1.0 / 6}},
		{"prismdb", Setup{System: SysPrism, NVMFraction: 1.0 / 6}},
		{"prismdb-parallel", Setup{System: SysPrism, NVMFraction: 1.0 / 6, ParallelDriver: true}},
	} {
		res, err := Run(sys.setup, sc, wl, sys.label+"/ycsb-e")
		if err != nil {
			return nil, fmt.Errorf("%s ycsb-e: %w", sys.label, err)
		}
		out[sys.label] = res
		rows = append(rows, []string{
			sys.label, f1(res.ThroughputKops),
			us(res.ScanHist.Quantile(0.5)), us(res.ScanHist.Quantile(0.99)),
			f1(res.HostKops),
		})
	}
	table(w, []string{"system", "tput(Kops/s)", "scan-p50", "scan-p99", "host-kops/s"}, rows)
	return out, nil
}

// unused keeps core import stable across refactors.
var _ = core.TierDRAM
