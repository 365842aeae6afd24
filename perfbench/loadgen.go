package main

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"github.com/prismdb/prismdb/workload"
)

// The wire workloads' load generator runs in a child process (this binary
// started with --loadgen). In the server's process its sender goroutines
// queued behind compaction goroutines for whole 10 ms scheduler slices, so
// the open loop's send lag measured the Go scheduler rather than the
// store; a process of its own is woken by the kernel on time. The parent
// owns the engine and servers and steps the child through the phases:
// requests go to the child's stdin and responses come back on its stdout,
// gob-encoded.

// request is one step for the load generator.
type request struct {
	Op     string // "dial", "preload", "closed", "open" or "counts"
	Addr   string // dial: the server to add
	Server int    // which dialled server the step drives
	Dur    time.Duration
	Round  int  // open: which round of the schedule to run
	Ords   bool // open: count per-key ordinals for the trace join
}

// response carries a step's results and its checked operations.
type response struct {
	Ops       int64
	Attempted int64
	Failed    int64
	Failures  []string
	Cmds      [3]int64     // counts: gets, sets and scans sent to Server
	Live      int64        // counts: keys written at least once
	Open      []openRecord // open: one record per op
	Err       string
}

// openRecord is one open-loop op; times are nanoseconds from the phase
// start.
type openRecord struct {
	Kind            workload.OpKind
	Key             int32
	Scan            int16
	Ord             uint32
	Due, Sent, Recv int64
}

// genProc is the parent's handle on the child.
type genProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *gob.Encoder
	dec   *gob.Decoder
}

func startLoadgen(cfg runConfig, name, addr string) (*genProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--loadgen", "--workload", name,
		"--seed", strconv.FormatInt(cfg.seed, 10), "--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"--addr", addr)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting load generator: %w", err)
	}
	return &genProc{cmd: cmd, stdin: stdin, enc: gob.NewEncoder(stdin), dec: gob.NewDecoder(stdout)}, nil
}

// call runs one step and folds its checked operations into out.
func (d *genProc) call(req request, out *outcome) (*response, error) {
	if err := d.enc.Encode(req); err != nil {
		return nil, fmt.Errorf("load generator %s: %w", req.Op, err)
	}
	var resp response
	if err := d.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("load generator %s: %w", req.Op, err)
	}
	out.merge(&outcome{attempted: resp.Attempted, failed: resp.Failed, failures: resp.Failures})
	if resp.Err != "" {
		return &resp, fmt.Errorf("load generator %s: %s", req.Op, resp.Err)
	}
	return &resp, nil
}

// stop closes the child's stdin, which ends it, and waits for it to exit;
// a child that does not exit in time is killed.
func (d *genProc) stop() error {
	d.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("load generator did not exit; killed")
	}
}

// loadgen is the child's state.
type loadgen struct {
	spec    *wireSpec
	codec   *valueCodec
	models  [wireConns][]uint32 // per connection slot, shared by its connections to every server
	servers [][wireConns]*client
	pool    [wireConns][]op
	pos     [wireConns]int
	rounds  [measureRounds][wireConns][]timedOp // the open-loop schedule
}

// runLoadgen is the child process: it generates the workload's inputs from
// the seed, dials the server and serves the parent's steps until its stdin
// closes.
func runLoadgen(spec *wireSpec, seed int64, seconds float64, addr string) error {
	// One P per sender and reader: a sender waking from its sleep must not
	// wait for a reader busy decoding replies to give up a P, which the
	// runtime forces only every 10 ms. The kernel shares the cores.
	runtime.GOMAXPROCS(2*wireConns + 1)
	y, err := workload.YCSB(spec.mix, spec.keys, wireValueSize, spec.theta, seed)
	if err != nil {
		return err
	}
	gen := workload.NewGenerator(y)
	d := &loadgen{spec: spec, codec: newValueCodec(wireValueSize, seed)}
	d.pool = split(genOps(gen, poolOps))
	for i := range d.rounds {
		d.rounds[i] = genSchedule(gen, spec.rate, seconds*openShare/measureRounds)
	}
	for i := range d.models {
		d.models[i] = make([]uint32, gen.Keys()) // loaded keys plus every insert drawn
	}
	defer d.close()
	if err := d.dial(addr); err != nil {
		return err
	}
	dec, enc := gob.NewDecoder(os.Stdin), gob.NewEncoder(os.Stdout)
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		out := newOutcome()
		resp := d.step(req, out)
		resp.Attempted, resp.Failed, resp.Failures = out.attempted, out.failed, out.failures
		if err := enc.Encode(resp); err != nil {
			return err
		}
	}
}

func (d *loadgen) dial(addr string) error {
	var cs [wireConns]*client
	for i := range cs {
		c, err := dial(addr, i, d.codec, d.models[i], d.spec.keys)
		if err != nil {
			return err
		}
		cs[i] = c
	}
	d.servers = append(d.servers, cs)
	return nil
}

func (d *loadgen) close() {
	for _, cs := range d.servers {
		for _, c := range cs {
			c.nc.Close()
		}
	}
}

func (d *loadgen) step(req request, out *outcome) *response {
	resp := &response{}
	var err error
	if req.Op != "dial" && (req.Server < 0 || req.Server >= len(d.servers)) {
		resp.Err = fmt.Sprintf("no server %d", req.Server)
		return resp
	}
	switch req.Op {
	case "dial":
		err = d.dial(req.Addr)
	case "preload":
		err = preload(d.servers[req.Server], d.spec.keys, out)
	case "closed":
		resp.Ops, err = closedLoop(d.servers[req.Server], d.pool, &d.pos, req.Dur, out)
	case "open":
		if req.Round < 0 || req.Round >= measureRounds {
			err = fmt.Errorf("no round %d", req.Round)
			break
		}
		cs := d.servers[req.Server]
		for _, c := range cs {
			// Ordinals run on across a traced run's rounds.
			if !req.Ords {
				c.ords = nil
			} else if c.ords == nil {
				c.ords = map[uint64]uint32{}
			}
		}
		var res [wireConns]*openResult
		res, err = openLoop(cs, d.rounds[req.Round], out)
		if err == nil {
			resp.Open = flatten(res)
		}
	case "counts":
		for _, c := range d.servers[req.Server] {
			for k := range resp.Cmds {
				resp.Cmds[k] += c.cmds[k]
			}
		}
		for _, m := range d.models {
			for _, s := range m {
				if s != 0 {
					resp.Live++
				}
			}
		}
	default:
		err = fmt.Errorf("unknown step %q", req.Op)
	}
	if err != nil {
		resp.Err = err.Error()
	}
	return resp
}

func flatten(res [wireConns]*openResult) []openRecord {
	var recs []openRecord
	for _, r := range res {
		for i, t := range r.sched {
			rec := openRecord{Kind: t.kind, Key: t.key, Scan: t.scan,
				Due: int64(t.due), Sent: r.sentAt[i], Recv: r.recvAt[i]}
			if r.ord != nil {
				rec.Ord = r.ord[i]
			}
			recs = append(recs, rec)
		}
	}
	return recs
}
