package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/prismdb/prismdb/internal/core"
	"github.com/prismdb/prismdb/internal/obs"
	"github.com/prismdb/prismdb/internal/server"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/tracker"
	"github.com/prismdb/prismdb/workload"
)

// snap is every engine-side counter the metrics are deltas of.
type snap struct {
	st               core.Stats
	nvm, flash       simdev.Stats
	cacheHit, cacheM int64
	ps               core.PersistenceStats
	elapsed          time.Duration
	viewRetries      int64
	// Engine-billed simulated latency the untraced server recorded, by
	// kGet, kSet and kScan: total nanoseconds and op count.
	virtSum, virtN [3]int64
	mem            memSnap
}

func (r *rig) snap() snap {
	s := snap{st: r.db.Stats(), nvm: r.opts.NVM.Stats(), flash: r.opts.Flash.Stats(),
		ps: r.db.PersistenceStats(), elapsed: r.db.Elapsed(), mem: readMem()}
	s.cacheHit, s.cacheM = r.opts.Cache.Stats()
	g := r.reg.Gather()
	if p, ok := g.Find("prism_read_view_retries_total"); ok {
		s.viewRetries = int64(p.Value)
	}
	for k, op := range [3]string{"get", "set", "scan"} {
		if h := g.FindHist(`prism_server_op_virtual_latency_seconds{op="` + op + `"}`); h != nil {
			s.virtSum[k], s.virtN[k] = h.Sum(), h.Count()
		}
	}
	return s
}

// userBytesOf is the key and value bytes of n writes.
func userBytesOf(n int64) float64 { return float64(n) * (16 + wireValueSize) }

// measure runs the measured phase on the kept set-up. Untraced: rounds of
// a closed-loop capacity phase followed by an open-loop phase, so both
// sample the whole run rather than one stretch of it. Traced: closed-loop
// phases alternating the untraced and the traced server (for the tracing
// overhead), then the open-loop rounds on the traced server.
func (s *wireSpec) measure(r *rig, cfg runConfig, out *outcome) (*outcome, error) {
	res := newOutcome()
	closedT := time.Duration(cfg.seconds * closedShare * float64(time.Second))
	if cfg.trace {
		if err := r.addTraced(out); err != nil {
			return nil, err
		}
	}
	readKind := workload.OpRead
	if s.mix == 'E' {
		readKind = workload.OpScan
	}
	isRead := func(k workload.OpKind) bool { return k == readKind }
	isWrite := func(k workload.OpKind) bool { return kindOf(k) == kSet }
	r.db.ResetStats()
	a := r.snap()

	var open []openRecord
	// openRound drains the compaction backlog, so each open-loop round
	// starts from a settled engine, and runs round i against server srv.
	openRound := func(i, srv int) ([]openRecord, error) {
		r.db.DrainCompactions()
		resp, err := r.gen.call(request{Op: "open", Server: srv, Round: i, Ords: srv == 1}, out)
		if err != nil {
			return nil, err
		}
		open = append(open, resp.Open...)
		return resp.Open, nil
	}
	if !cfg.trace {
		var rates, reads, writes []float64
		var n, nr, nw int64
		var virt time.Duration
		var vsum, vn [3]int64     // simulated latency over the open-loop rounds
		var flashB, puts [2]int64 // per half of the rounds, for the wamp gate
		for i := 0; i < measureRounds; i++ {
			s0 := r.snap()
			for w := 0; w < closedWindows/measureRounds; w++ {
				w0 := time.Now()
				k, err := r.closed(0, closedT/closedWindows, out)
				if err != nil {
					return nil, err
				}
				rates = append(rates, float64(k)/time.Since(w0).Seconds())
				n += k
			}
			s1 := r.snap()
			virt += s1.elapsed - s0.elapsed
			h := 2 * i / measureRounds
			flashB[h] += s1.flash.WriteBytes - s0.flash.WriteBytes
			puts[h] += s1.st.Puts - s0.st.Puts
			recs, err := openRound(i, 0)
			if err != nil {
				return nil, err
			}
			s2 := r.snap()
			for k := range vsum {
				vsum[k] += s2.virtSum[k] - s1.virtSum[k]
				vn[k] += s2.virtN[k] - s1.virtN[k]
			}
			rl, wl := openLatencies(recs, isRead), openLatencies(recs, isWrite)
			reads, writes = append(reads, quantile(rl, 0.5)), append(writes, quantile(wl, 0.5))
			nr, nw = nr+int64(len(rl)), nw+int64(len(wl))
		}
		fmt.Printf("# closed loop (wall clock): median window %.0f ops/s; windows %.0f\n", median(rates), rates)
		fmt.Printf("# open loop (wall clock): median read %.1fus, write %.1fus over %d and %d ops; round medians %.1f, %.1f\n",
			median(reads), median(writes), nr, nw, reads, writes)
		rk := kGet
		if s.mix == 'E' {
			rk = kScan
		}
		res.set("virt_kops", float64(n)/virt.Seconds()/1e3, n)
		res.set("read_us", ratio(float64(vsum[rk]), float64(vn[rk]))/1e3, vn[rk])
		fmt.Printf("# simulated write latency (heavy-tailed, unbounded): mean %.1fus over %d SETs\n",
			ratio(float64(vsum[kSet]), float64(vn[kSet]))/1e3, vn[kSet])
		if err := s.wampGate(flashB, puts); err != nil {
			return nil, err
		}
	} else {
		// Untraced, traced, untraced: the traced phase is compared with
		// the mean of the phases either side of it.
		var tput [3]float64
		for i, srv := range []int{0, 1, 0} {
			t0 := time.Now()
			n, err := r.closed(srv, closedT/2, out)
			if err != nil {
				return nil, err
			}
			tput[i] = float64(n) / time.Since(t0).Seconds()
		}
		u := (tput[0] + tput[2]) / 2
		res.set("trace.overhead_frac", (u-tput[1])/u, 3)
		res.set("loadgen.ops_per_s", u, 2)
		r.traced.eng.start()
		for i := 0; i < measureRounds; i++ {
			if _, err := openRound(i, 1); err != nil {
				r.traced.eng.stop()
				return nil, err
			}
		}
		r.traced.eng.stop()
	}
	b := r.snap()

	lags := openLags(open)
	lagGate, lag := quantile(lags, lagQuantile), quantile(lags, 0.99)
	fmt.Printf("# open loop: %d ops at %.0f ops/s offered, send lag p90 %.1fus p99 %.1fus\n", len(open), s.rate, lagGate, lag)
	if lagGate > float64(lagBound.Microseconds()) {
		return nil, fmt.Errorf("invalid run: open-loop send lag p90 %.0fus exceeds %v", lagGate, lagBound)
	}
	if err := s.roundGates(a, b); err != nil {
		return nil, err
	}
	live, err := r.checkInfo(out)
	if err != nil {
		return nil, err
	}

	rd, wr := openLatencies(open, isRead), openLatencies(open, isWrite)
	ops := (b.st.Gets - a.st.Gets) + (b.st.Puts - a.st.Puts) + (b.st.Scans - a.st.Scans)
	puts := b.st.Puts - a.st.Puts
	if !cfg.trace {
		fmt.Printf("# open-loop tails (unbounded; host noise dominates them): read p99 %.0fus, write p99 %.0fus\n",
			quantile(rd, 0.99), quantile(wr, 0.99))
		dev := (b.nvm.WriteBytes - a.nvm.WriteBytes) + (b.flash.WriteBytes - a.flash.WriteBytes)
		res.set("write_amp", ratio(float64(dev), userBytesOf(puts)), puts)
		return res, nil
	}

	res.set("loadgen.lag_p99_us", lag, int64(len(open)))
	res.set("loadgen.read_p50_us", quantile(rd, 0.5), int64(len(rd)))
	res.set("loadgen.write_p50_us", quantile(wr, 0.5), int64(len(wr)))
	res.set("loadgen.read_p99_us", quantile(rd, 0.99), int64(len(rd)))
	res.set("loadgen.write_p99_us", quantile(wr, 0.99), int64(len(wr)))
	if err := r.setServerLayers(res, open); err != nil {
		return nil, err
	}
	r.setCoreLayers(res, a, b)
	r.setCompactionLayers(res, a, b, live)
	setStorageLayers(res, a, b, puts)
	r.setSimdevLayers(res, a, b, ops)
	setRuntime(res, a.mem, b.mem, ops)
	return res, nil
}

// addTraced starts the traced server (decorated engine, every command
// sampled) and has the load generator dial it; its connections share the
// untraced connections' models.
func (r *rig) addTraced(out *outcome) error {
	eng := newTracedEngine(r.db)
	ep, err := serve(server.Config{Engine: eng, TraceSample: 1})
	if err != nil {
		return err
	}
	r.traced = &tracedRig{eng: eng, ep: ep}
	_, err = r.gen.call(request{Op: "dial", Addr: ep.addr}, out)
	return err
}

// wampGate checks flash write amplification levelled off: the closed-loop
// segments of the first and second half of the rounds agree within
// wampDrift.
func (s *wireSpec) wampGate(flashB, puts [2]int64) error {
	if s.minRounds == 0 {
		return nil
	}
	w1 := ratio(float64(flashB[0]), userBytesOf(puts[0]))
	w2 := ratio(float64(flashB[1]), userBytesOf(puts[1]))
	fmt.Printf("# flash_wamp over the closed loop's halves: %.3f, %.3f\n", w1, w2)
	if d := ratio(w2-w1, max(w1, w2)); d > wampDrift || d < -wampDrift {
		return fmt.Errorf("steady-state gate: flash_wamp %.3f then %.3f across the closed loop's halves", w1, w2)
	}
	return nil
}

// roundGates checks the measured phase's compaction rounds: several on a
// workload that must compact, none (and no flash reads) on one that fits.
func (s *wireSpec) roundGates(a, b snap) error {
	rounds := b.st.Compactions - a.st.Compactions
	fmt.Printf("# compaction rounds in the measured phase: %d\n", rounds)
	switch {
	case s.minRounds > 0 && rounds < s.minRounds:
		return fmt.Errorf("steady-state gate: %d compaction rounds in the measured phase, want >= %d", rounds, s.minRounds)
	case s.noRounds && rounds != 0:
		return fmt.Errorf("steady-state gate: %d compaction rounds in the measured phase of a workload that fits NVM", rounds)
	case s.noRounds && b.flash.ReadOps != a.flash.ReadOps:
		return fmt.Errorf("steady-state gate: %d flash reads on a workload that fits NVM", b.flash.ReadOps-a.flash.ReadOps)
	}
	return nil
}

// checkInfo compares each server's INFO command counters with what the
// load generator sent it, and returns how many keys hold data.
func (r *rig) checkInfo(out *outcome) (int64, error) {
	eps := []*endpoint{r.ep}
	if r.traced != nil {
		eps = append(eps, r.traced.ep)
	}
	var live int64
	for i, ep := range eps {
		resp, err := r.gen.call(request{Op: "counts", Server: i}, out)
		if err != nil {
			return 0, err
		}
		if err := infoMatches(ep, resp.Cmds); err != nil {
			return 0, err
		}
		if i == 1 {
			r.traced.cmds = resp.Cmds
		}
		live = resp.Live
	}
	return live, nil
}

func infoMatches(ep *endpoint, sent [3]int64) error {
	c, err := dial(ep.addr, 0, nil, nil, 0)
	if err != nil {
		return err
	}
	defer c.nc.Close()
	c.bw.Write(appendCmd(nil, cmdINFO, []byte("ops")))
	if err := c.bw.Flush(); err != nil {
		return err
	}
	body, ok, err := c.rr.bulk(nil)
	if err != nil || !ok {
		return fmt.Errorf("INFO: %v", err)
	}
	for k, name := range []string{"cmd_get", "cmd_set", "cmd_scan"} {
		got, found := infoField(string(body), name)
		if !found || got != sent[k] {
			return fmt.Errorf("INFO %s = %d (found %v), load generator sent %d", name, got, found, sent[k])
		}
	}
	return nil
}

func infoField(info, name string) (int64, bool) {
	for _, line := range strings.Split(info, "\r\n") {
		if v, ok := strings.CutPrefix(line, name+":"); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// openLags is how late the generator sent each op, in microseconds.
func openLags(open []openRecord) []float64 {
	lags := make([]float64, len(open))
	for i, o := range open {
		lags[i] = float64(o.Sent-o.Due) / 1e3
	}
	return lags
}

// openLatencies are the latencies, from each op's due time, of the ops
// whose kind matches, in microseconds.
func openLatencies(open []openRecord, match func(workload.OpKind) bool) []float64 {
	var xs []float64
	for _, o := range open {
		if match(o.Kind) {
			xs = append(xs, float64(o.Recv-o.Due)/1e3)
		}
	}
	return xs
}

// setServerLayers joins each traced wire op (round trip from actual send
// to reply) with its engine span on (kind, key, ordinal); the server's
// self time is the difference.
func (r *rig) setServerLayers(res *outcome, open []openRecord) error {
	spans := r.traced.eng.spans()
	var scans []scanSpan
	if r.spec.mix == 'E' {
		var err error
		if scans, err = replayScans(r.db, open); err != nil {
			return err
		}
	}
	var self [3][]float64
	var scanDur []float64
	var scanNs, scanKeys int64
	for i, o := range open {
		k := kindOf(o.Kind)
		rtt := o.Recv - o.Sent
		if k == kScan {
			sp := scans[i]
			self[k] = append(self[k], float64(rtt-sp.dur)/1e3)
			scanDur = append(scanDur, float64(sp.dur)/1e3)
			scanNs += sp.dur
			scanKeys += int64(sp.keys)
			continue
		}
		sp, ok := spans[[2]uint64{ordKey(k, int(o.Key)), uint64(o.Ord)}]
		if !ok {
			return fmt.Errorf("trace join: no engine span for %s user%012d #%d", o.Kind, o.Key, o.Ord)
		}
		self[k] = append(self[k], float64(rtt-sp.dur)/1e3)
	}
	n := func(xs []float64) int64 { return int64(len(xs)) }
	res.set("server.get_self_p50_us", quantile(self[kGet], 0.5), n(self[kGet]))
	res.set("server.get_self_p99_us", quantile(self[kGet], 0.99), n(self[kGet]))
	res.set("server.set_self_p50_us", quantile(self[kSet], 0.5), n(self[kSet]))
	res.set("server.scan_self_p50_us", quantile(self[kScan], 0.5), n(self[kScan]))
	res.set("core.scan_p50_us", quantile(scanDur, 0.5), n(scanDur))
	res.set("core.scan_ns_per_key", ratio(float64(scanNs), float64(scanKeys)), scanKeys)

	// Replies per socket flush: the median flush's bytes over the mean
	// reply's bytes, from the traced server's registry.
	g := r.traced.ep.srv.Registry().Gather()
	if h := g.FindHist("prism_server_reply_flush_bytes"); h != nil && h.Count() > 0 {
		var replies int64
		for _, n := range r.traced.cmds {
			replies += n
		}
		perReply := ratio(float64(h.Sum()), float64(replies))
		res.set("server.replies_per_flush_p50", ratio(float64(obs.Quantile(h, 0.5)), perReply), h.Count())
	}

	t := r.traced.eng
	t.mu.Lock()
	defer t.mu.Unlock()
	gets, puts, vget := make([]float64, 0, len(t.gets)), make([]float64, 0, len(t.puts)), make([]float64, 0, len(t.gets))
	for _, s := range t.gets {
		gets = append(gets, float64(s.dur)/1e3)
		vget = append(vget, float64(s.vdur)/1e3)
	}
	for _, s := range t.puts {
		puts = append(puts, float64(s.dur)/1e3)
	}
	if r.spec.mix == 'E' {
		vget = vget[:0]
		for i, o := range open {
			if o.Kind == workload.OpScan {
				vget = append(vget, float64(scans[i].vdur)/1e3)
			}
		}
	}
	res.set("core.get_p50_us", quantile(gets, 0.5), n(gets))
	res.set("core.get_p99_us", quantile(gets, 0.99), n(gets))
	res.set("core.put_p50_us", quantile(puts, 0.5), n(puts))
	res.set("core.put_p99_us", quantile(puts, 0.99), n(puts))
	res.set("simdev.virt_read_p50_us", quantile(vget, 0.5), n(vget))
	res.set("simdev.virt_read_p99_us", quantile(vget, 0.99), n(vget))
	var vput float64
	for _, s := range t.puts {
		vput += float64(s.vdur) / 1e3
	}
	res.set("simdev.virt_write_mean_us", ratio(vput, float64(len(t.puts))), int64(len(t.puts)))
	var qw, ap, wa, fw []float64
	for _, s := range t.stages {
		qw = append(qw, s.QueueWait.Seconds()*1e6)
		ap = append(ap, s.Apply.Seconds()*1e6)
		wa = append(wa, s.WALAppend.Seconds()*1e6)
		fw = append(fw, s.FsyncWait.Seconds()*1e6)
	}
	res.set("core.queue_wait_p50_us", quantile(qw, 0.5), n(qw))
	res.set("core.apply_p50_us", quantile(ap, 0.5), n(ap))
	res.set("core.wal_append_p50_us", quantile(wa, 0.5), n(wa))
	res.set("core.fsync_wait_p50_us", quantile(fw, 0.5), n(fw))
	return nil
}

func (r *rig) setCoreLayers(res *outcome, a, b snap) {
	gets := b.st.Gets - a.st.Gets
	writes := (b.st.Puts - a.st.Puts) + (b.st.Deletes - a.st.Deletes)
	d := deltaStats(a.st, b.st)
	res.set("core.get_nvm_frac", d.NVMReadRatio(), gets)
	res.set("core.get_flash_frac", ratio(float64(d.GetFlash), float64(gets)), gets)
	res.set("core.bloom_fp_frac", ratio(float64(d.BloomFalsePositives), float64(gets)), gets)
	res.set("core.view_retries_per_kget", ratio(float64(b.viewRetries-a.viewRetries)*1e3, float64(gets)), gets)
	res.set("core.write_batch_p50", float64(b.st.WriteBatchP50), d.WriteBatches)
	res.set("core.direct_write_frac", ratio(float64(d.DirectWrites), float64(writes)), writes)
	res.set("core.producer_parks_per_kwrite", ratio(float64(d.ProducerParks)*1e3, float64(writes)), writes)
	res.set("core.view_republishes_per_write", ratio(float64(d.ViewRepublishes), float64(writes)), writes)
}

// deltaStats is b - a for the counters the layers read.
func deltaStats(a, b core.Stats) core.Stats {
	return core.Stats{
		Gets: b.Gets - a.Gets, GetDRAM: b.GetDRAM - a.GetDRAM, GetNVM: b.GetNVM - a.GetNVM,
		GetFlash: b.GetFlash - a.GetFlash, BloomFalsePositives: b.BloomFalsePositives - a.BloomFalsePositives,
		Compactions: b.Compactions - a.Compactions, CompactionTime: b.CompactionTime - a.CompactionTime,
		SelectionTime: b.SelectionTime - a.SelectionTime, Demoted: b.Demoted - a.Demoted,
		Promoted: b.Promoted - a.Promoted, FlashBytesRead: b.FlashBytesRead - a.FlashBytesRead,
		WriteStalls: b.WriteStalls - a.WriteStalls, WriteStallTime: b.WriteStallTime - a.WriteStallTime,
		CommitConflicts: b.CommitConflicts - a.CommitConflicts, CompactionHardStalls: b.CompactionHardStalls - a.CompactionHardStalls,
		CompactionHardStallTime: b.CompactionHardStallTime - a.CompactionHardStallTime,
		WriteBatches:            b.WriteBatches - a.WriteBatches, DirectWrites: b.DirectWrites - a.DirectWrites,
		ViewRepublishes: b.ViewRepublishes - a.ViewRepublishes, ProducerParks: b.ProducerParks - a.ProducerParks,
	}
}

func (r *rig) setCompactionLayers(res *outcome, a, b snap, live int64) {
	d := deltaStats(a.st, b.st)
	puts := b.st.Puts - a.st.Puts
	ops := (b.st.Gets - a.st.Gets) + puts + (b.st.Scans - a.st.Scans)
	kop := float64(ops) / 1e3
	res.set("compaction.rounds", float64(d.Compactions), d.Compactions)
	res.set("compaction.virt_ms_per_round", ratio(d.CompactionTime.Seconds()*1e3, float64(d.Compactions)), d.Compactions)
	res.set("compaction.select_frac", ratio(float64(d.SelectionTime), float64(d.CompactionTime)), d.Compactions)
	res.set("compaction.flash_read_b_per_user_b", ratio(float64(d.FlashBytesRead), userBytesOf(puts)), puts)
	res.set("compaction.write_stall_virt_ms", d.WriteStallTime.Seconds()*1e3, d.WriteStalls)
	res.set("compaction.demoted_per_kop", ratio(float64(d.Demoted), kop), ops)
	res.set("compaction.promoted_per_kop", ratio(float64(d.Promoted), kop), ops)
	res.set("compaction.conflict_frac", ratio(float64(d.CommitConflicts), float64(d.Demoted)), d.Demoted)
	res.set("compaction.hard_stalls", float64(d.CompactionHardStalls), d.CompactionHardStalls)
	res.set("compaction.hard_stall_ms", d.CompactionHardStallTime.Seconds()*1e3, d.CompactionHardStalls)
	res.set("compaction.flash_wamp", ratio(float64(b.flash.WriteBytes-a.flash.WriteBytes), userBytesOf(puts)), puts)
	res.set("compaction.space_amp", ratio(float64(r.opts.NVM.Used()+r.opts.Flash.Used()), userBytesOf(live)), live)

	th := r.db.PinThresholds()
	var sum float64
	for _, t := range th {
		sum += t
	}
	res.set("tracker.pin_threshold_mean", ratio(sum, float64(len(th))), int64(len(th)))
	dist := r.db.ClockDistribution()
	var total int
	for _, n := range dist {
		total += n
	}
	res.set("tracker.clock_max_frac", ratio(float64(dist[tracker.MaxClock]), float64(total)), int64(total))
}

func setStorageLayers(res *outcome, a, b snap, puts int64) {
	fs := b.ps.WALFsyncs - a.ps.WALFsyncs
	res.set("storage.fsyncs_per_kwrite", ratio(float64(fs)*1e3, float64(puts)), puts)
	res.set("storage.group_batch_p50", float64(b.ps.GroupCommitBatchP50), fs)
	res.set("storage.fsync_p50_us", b.ps.FsyncP50.Seconds()*1e6, fs)
	res.set("storage.fsync_p99_us", b.ps.FsyncP99.Seconds()*1e6, fs)
	res.set("storage.wal_b_per_user_b", ratio(float64(b.ps.WALBytes-a.ps.WALBytes), userBytesOf(puts)), puts)
}

func (r *rig) setSimdevLayers(res *outcome, a, b snap, ops int64) {
	el := float64(b.elapsed - a.elapsed)
	busy := func(d *simdev.Device, x, y simdev.Stats) float64 {
		return ratio(float64(y.BusyTime-x.BusyTime), el*float64(d.Params().Channels))
	}
	res.set("simdev.nvm_busy_frac", busy(r.opts.NVM, a.nvm, b.nvm), ops)
	res.set("simdev.flash_busy_frac", busy(r.opts.Flash, a.flash, b.flash), ops)
	res.set("simdev.nvm_queue_us_per_op", ratio((b.nvm.QueueTime-a.nvm.QueueTime).Seconds()*1e6, float64(ops)), ops)
	res.set("simdev.flash_queue_us_per_op", ratio((b.flash.QueueTime-a.flash.QueueTime).Seconds()*1e6, float64(ops)), ops)
	hits, misses := b.cacheHit-a.cacheHit, b.cacheM-a.cacheM
	res.set("simdev.cache_hit_frac", ratio(float64(hits), float64(hits+misses)), hits+misses)
}
