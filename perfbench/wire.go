package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"github.com/prismdb/prismdb"
	"github.com/prismdb/prismdb/internal/core"
	"github.com/prismdb/prismdb/internal/obs"
	"github.com/prismdb/prismdb/internal/server"
)

// wireSpec sizes one workload served over loopback RESP by an in-process
// internal/server in front of a RecommendedConfig engine in its default
// modes (async writes, async compaction).
type wireSpec struct {
	name    string
	mix     byte    // YCSB letter
	theta   float64 // Zipf parameter
	keys    int     // loaded keys
	tiers   prismdb.TierSpec
	durable bool    // DataDir with a group-commit WAL
	rate    float64 // open-loop offered ops/s, well below capacity
	// Steady-state gates on the measured phase's compaction rounds.
	minRounds int64
	noRounds  bool
}

const (
	wireConns  = 2  // at most nproc connections
	wireDepth  = 32 // closed-loop commands in flight per connection
	wireSetups = 3  // set-ups per run; setup_s is their median

	// The measured seconds split between the closed-loop capacity phase
	// and the open-loop phase.
	closedShare   = 0.4
	closedWindows = 16
	openShare     = 0.6
	// measureRounds alternations of closed and open loop share them out.
	measureRounds = 4

	// Warm-up runs closed-loop windows until throughput and the fast-tier
	// read share have stopped rising: the median of the last warmLevel
	// windows is within warmTputRise (relative) and warmTierRise (absolute)
	// of the median of the warmLevel before. A warm-up that has not levelled
	// after warmMaxWindows fails the run.
	warmWindow     = 400 * time.Millisecond
	warmLevel      = 3
	warmTputRise   = 0.10
	warmTierRise   = 0.02
	warmMaxWindows = 25

	// An open-loop phase whose generator sent more than a tenth of its
	// ops over lagBound late is invalid: its median latencies would
	// measure the generator. (The p99 of the lag follows the host's
	// scheduling hiccups; it is reported, not gated.)
	lagQuantile = 0.9
	lagBound    = 5 * time.Millisecond

	// wampDrift bounds how far flash write amplification may move between
	// the two halves of the closed-loop phase on a workload gated on
	// compaction rounds.
	wampDrift = 0.5

	poolOps = 300000 // closed-loop ops generated per run, cycled
)

func (s *wireSpec) provenance() map[string]any {
	opts := s.options(0)
	wal := "none (in-memory simulated devices)"
	if s.durable {
		wal = fmt.Sprintf("group: ack after append, fsync every %d records or %v", walGroupEvery, walGroupInterval)
	}
	cache := s.tiers.DRAMBytes
	if cache == 0 {
		cache = s.tiers.TotalBytes / 10 // RecommendedConfig's default
	}
	return map[string]any{
		"ycsb": string(s.mix), "zipf": s.theta, "keys": s.keys, "value_bytes": wireValueSize,
		"dataset_bytes":    int64(s.keys) * (16 + wireValueSize),
		"nvm_budget_bytes": opts.NVMBudget, "page_cache_bytes": cache,
		"sst_bytes": opts.TargetSSTBytes, "offered_ops_per_s": s.rate,
		"connections": wireConns, "closed_loop_depth": wireDepth, "setups": wireSetups,
		"wal": wal, "lag_p90_bound_us": lagBound.Microseconds(),
	}
}

// options is the engine configuration: RecommendedConfig for the tier
// spec, with the SST size scaled to the dataset as bench's paper setups
// scale it (the 4 MiB default would make every demotion round rewrite a
// large share of the NVM budget at this dataset size).
func (s *wireSpec) options(seed int64) core.Options {
	opts := prismdb.RecommendedConfig(s.tiers)
	opts.Seed = seed
	opts.TargetSSTBytes = int64(s.keys) * wireValueSize / 64
	return opts
}

// rig is one set-up: engine, server and the load generator connected to it.
type rig struct {
	spec   *wireSpec
	opts   core.Options
	db     *core.DB
	reg    *obs.Registry
	ep     *endpoint
	gen    *genProc
	traced *tracedRig // the traced server, built only for a traced run
}

// tracedRig is a second server on the same engine whose engine is the
// timing decorator, so the untraced and traced paths run side by side.
type tracedRig struct {
	eng  *tracedEngine
	ep   *endpoint
	cmds [3]int64 // commands the load generator sent it, by kind
}

func (s *wireSpec) run(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var r *rig
	for i := 0; i < wireSetups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if r, err = s.setup(cfg, i, out); err != nil {
			if r != nil {
				r.close()
			}
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		fmt.Printf("# set-up %d: %.2fs\n", i, setups[i])
	}
	res, err := s.measure(r, cfg, out)
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(setups), int64(len(setups)))
	res.merge(out)
	return res, nil
}

// setup builds a fresh engine and server, starts the load generator, preloads
// the dataset, and warms up until throughput and tier placement level off.
func (s *wireSpec) setup(cfg runConfig, n int, out *outcome) (*rig, error) {
	opts := s.options(cfg.seed)
	reg := obs.NewRegistry()
	opts.Metrics = reg
	if s.durable {
		dir, err := cfg.mkdir(fmt.Sprintf("data-%d", n))
		if err != nil {
			return nil, err
		}
		opts.DataDir = dir
		opts.WALSync = prismdb.SyncGroup
		opts.WALFsyncEvery = walGroupEvery
		opts.WALFsyncInterval = walGroupInterval
	}
	db, err := core.Open(opts)
	if err != nil {
		return nil, err
	}
	r := &rig{spec: s, opts: opts, db: db, reg: reg}
	if r.ep, err = serve(server.Config{Engine: db, Metrics: reg}); err != nil {
		db.Close()
		return nil, err
	}
	if r.gen, err = startLoadgen(cfg, s.name, r.ep.addr); err != nil {
		return r, err
	}
	t0 := time.Now()
	if _, err := r.gen.call(request{Op: "preload"}, out); err != nil {
		return r, err
	}
	fmt.Printf("# preload %d keys: %.2fs\n", s.keys, time.Since(t0).Seconds())
	return r, r.warm(out)
}

// endpoint is a server listening on a loopback port.
type endpoint struct {
	srv  *server.Server
	addr string
	done chan error // Serve's return value
}

func serve(cfg server.Config) (*endpoint, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &endpoint{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { ep.done <- srv.Serve(ln) }()
	return ep, nil
}

// stop shuts the server down and waits for Serve to return.
func (e *endpoint) stop() error {
	return errors.Join(e.srv.Shutdown(5*time.Second), <-e.done)
}

// close tears the rig down: the load generator, the servers (waiting for
// Serve to return), then the engine.
func (r *rig) close() error {
	var errs []error
	if r.gen != nil {
		errs = append(errs, r.gen.stop())
	}
	errs = append(errs, r.ep.stop())
	if r.traced != nil {
		errs = append(errs, r.traced.ep.stop())
	}
	errs = append(errs, r.db.Close())
	if r.opts.DataDir != "" {
		// Deleting the files drops their dirty pages, whose writeback
		// would otherwise compete with the next set-up's fsyncs.
		errs = append(errs, os.RemoveAll(r.opts.DataDir))
	}
	return errors.Join(errs...)
}

// closed runs the load generator's closed loop against server i for d and returns
// the ops completed.
func (r *rig) closed(i int, d time.Duration, out *outcome) (int64, error) {
	resp, err := r.gen.call(request{Op: "closed", Server: i, Dur: d}, out)
	if err != nil {
		return 0, err
	}
	return resp.Ops, nil
}

// warm runs closed-loop windows until throughput and the fast-tier read
// share have stopped rising.
func (r *rig) warm(out *outcome) error {
	var tputs, tiers []float64
	prev := r.db.Stats()
	for w := 0; w < warmMaxWindows; w++ {
		t0 := time.Now()
		n, err := r.closed(0, warmWindow, out)
		if err != nil {
			return err
		}
		st := r.db.Stats()
		tputs = append(tputs, float64(n)/time.Since(t0).Seconds())
		tiers = append(tiers, fastReadShare(prev, st))
		prev = st
		if levelled(tputs, tiers) {
			fmt.Printf("# warm-up levelled after %d windows: ops/s %.0f, fast-tier read share %.3f\n",
				len(tputs), tputs[len(tputs)-2*warmLevel:], tiers[len(tiers)-2*warmLevel:])
			return nil
		}
	}
	return fmt.Errorf("steady-state gate: warm-up did not level off in %d windows (ops/s %.0f, fast-tier read share %.3f)",
		warmMaxWindows, tputs, tiers)
}

// levelled reports whether the last warmLevel windows' median throughput
// and fast-tier read share are no longer rising above the warmLevel before.
func levelled(tputs, tiers []float64) bool {
	n := len(tputs)
	if n < 2*warmLevel {
		return false
	}
	prevT, lastT := median(tputs[n-2*warmLevel:n-warmLevel]), median(tputs[n-warmLevel:])
	prevS, lastS := median(tiers[n-2*warmLevel:n-warmLevel]), median(tiers[n-warmLevel:])
	return lastT <= prevT*(1+warmTputRise) && lastS <= prevS+warmTierRise
}

// fastReadShare is the share of found reads between two snapshots served
// from DRAM or NVM.
func fastReadShare(a, b core.Stats) float64 {
	fast := (b.GetDRAM - a.GetDRAM) + (b.GetNVM - a.GetNVM)
	return ratio(float64(fast), float64(fast+b.GetFlash-a.GetFlash))
}
