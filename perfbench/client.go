package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/prismdb/prismdb/workload"
)

// op is one generated request.
type op struct {
	kind workload.OpKind
	key  int32
	scan int16
}

// genOps draws n ops from the seeded YCSB generator.
func genOps(gen *workload.Generator, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		o := gen.Next()
		idx, _ := keyIndex(o.Key)
		ops[i] = op{kind: o.Kind, key: int32(idx), scan: int16(o.ScanLen)}
	}
	return ops
}

func owner(key int32) int { return int(key) % wireConns }

// split deals ops out to their owner connections, keeping order.
func split(ops []op) [wireConns][]op {
	var out [wireConns][]op
	for _, o := range ops {
		c := owner(o.key)
		out[c] = append(out[c], o)
	}
	return out
}

// runClients runs fn once per client concurrently and merges the outcomes.
func runClients(cs [wireConns]*client, out *outcome, fn func(*client, *outcome) error) error {
	var wg sync.WaitGroup
	var outs [wireConns]*outcome
	var errs [wireConns]error
	for i, c := range cs {
		outs[i] = newOutcome()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(c, outs[i])
		}()
	}
	wg.Wait()
	for _, o := range outs {
		out.merge(o)
	}
	return errors.Join(errs[:]...)
}

// preload writes every key once (sequence 1), pipelined per owner.
func preload(cs [wireConns]*client, keys int, out *outcome) error {
	return runClients(cs, out, func(c *client, o *outcome) error {
		var mine []op
		for k := 0; k < keys; k++ {
			if owner(int32(k)) == c.slot {
				mine = append(mine, op{kind: workload.OpInsert, key: int32(k)})
			}
		}
		for len(mine) > 0 {
			n := min(len(mine), wireDepth)
			if err := c.batch(mine[:n], o); err != nil {
				return err
			}
			mine = mine[n:]
		}
		return nil
	})
}

// closedLoop drives every client with pipelined batches until the deadline
// and returns the ops completed.
func closedLoop(cs [wireConns]*client, pool [wireConns][]op, pos *[wireConns]int, d time.Duration, out *outcome) (int64, error) {
	until := time.Now().Add(d)
	var done [wireConns]int64
	err := runClients(cs, out, func(c *client, o *outcome) error {
		p := pool[c.slot]
		batch := make([]op, wireDepth)
		for time.Now().Before(until) {
			for j := range batch {
				batch[j] = p[pos[c.slot]%len(p)]
				pos[c.slot]++
			}
			if err := c.batch(batch, o); err != nil {
				return err
			}
			done[c.slot] += wireDepth
		}
		return nil
	})
	var n int64
	for _, d := range done {
		n += d
	}
	return n, err
}

// timedOp is an open-loop op with its due time from the phase start.
type timedOp struct {
	op
	due time.Duration
}

// genSchedule draws the open-loop ops: an absolute schedule at rate ops/s
// for d seconds.
func genSchedule(gen *workload.Generator, rate, d float64) [wireConns][]timedOp {
	ops := genOps(gen, int(rate*d))
	var out [wireConns][]timedOp
	for i, o := range ops {
		c := owner(o.key)
		out[c] = append(out[c], timedOp{op: o, due: time.Duration(float64(i) / rate * 1e9)})
	}
	return out
}

// openResult is one connection's open-loop record, indexed like its
// schedule: times in nanoseconds from the phase start.
type openResult struct {
	sched  []timedOp
	sentAt []int64
	recvAt []int64
	ord    []uint32 // per-key, per-kind ordinal (traced runs)
}

// openLoop sends each op at its due time, whatever the replies are doing,
// and times it from that due time.
func openLoop(cs [wireConns]*client, sched [wireConns][]timedOp, out *outcome) ([wireConns]*openResult, error) {
	var res [wireConns]*openResult
	t0 := time.Now()
	err := runClients(cs, out, func(c *client, o *outcome) error {
		r := &openResult{sched: sched[c.slot]}
		res[c.slot] = r
		return c.open(r, t0, o)
	})
	return res, err
}

// nanosleep blocks the calling thread for d. The runtime's timers wake
// about a millisecond late on Linux, which would dominate the lag the
// generator exists to keep small.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// client is one pipelined RESP connection and the model of the keys it owns.
type client struct {
	slot  int
	nc    net.Conn
	bw    *bufio.Writer
	rr    replyReader
	codec *valueCodec
	seq   []uint32 // the model: write sequence of each owned key's last write (0 = never written)
	keys  int      // loaded keys: indices below are never deleted

	// Buffers: the sender's key, value and command, the reader's replies.
	wbuf, kbuf, vbuf, rbuf, rvbuf []byte
	cmds                          [3]int64 // gets, sets, scans sent

	// ords counts, per kind and key, the ops sent since tracing began, so
	// wire spans join engine spans on (kind, key, ordinal).
	ords map[uint64]uint32
}

const (
	kGet = iota
	kSet
	kScan
)

// dial connects a client for ownership slot slot.
func dial(addr string, slot int, codec *valueCodec, seq []uint32, keys int) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{slot: slot, nc: nc, bw: bufio.NewWriterSize(nc, 64<<10), codec: codec, seq: seq, keys: keys}
	c.rr = replyReader{br: bufio.NewReaderSize(nc, 64<<10)}
	return c, nil
}

func kindOf(k workload.OpKind) int {
	switch k {
	case workload.OpRead:
		return kGet
	case workload.OpScan:
		return kScan
	}
	return kSet
}

// send writes one op's command and returns the value sequence its reply
// must show: the new sequence for a write, the last written for a read.
func (c *client) send(o op) uint32 {
	c.kbuf = keyInto(c.kbuf, int(o.key))
	k := kindOf(o.kind)
	c.cmds[k]++
	if c.ords != nil {
		c.ords[ordKey(k, int(o.key))]++
	}
	c.wbuf = c.wbuf[:0]
	var want uint32
	switch k {
	case kGet:
		want = c.seq[o.key]
		c.wbuf = appendCmd(c.wbuf, cmdGET, c.kbuf)
	case kScan:
		var n [8]byte
		c.wbuf = appendCmd(c.wbuf, cmdSCAN, c.kbuf, fmt.Appendf(n[:0], "%d", o.scan))
	default:
		c.seq[o.key]++
		want = c.seq[o.key]
		c.vbuf = c.codec.encode(c.vbuf, c.kbuf, want)
		c.wbuf = appendCmd(c.wbuf, cmdSET, c.kbuf, c.vbuf)
	}
	c.bw.Write(c.wbuf)
	return want
}

// ordKey packs (kind, key) for the ordinal counters.
func ordKey(kind, key int) uint64 { return uint64(kind)<<32 | uint64(key) }

// check reads one reply and verifies it against the model; a wrong answer
// or an error reply counts as a failed op.
func (c *client) check(o op, want uint32, out *outcome) error {
	out.attempted++
	switch kindOf(o.kind) {
	case kGet:
		v, ok, err := c.rr.bulk(c.rbuf)
		if err != nil {
			return c.replyErr(err, o, out)
		}
		if ok {
			c.rbuf = v[:0]
		}
		switch {
		case !ok && want != 0:
			out.fail("GET user%012d missed; last write on its connection was seq %d", o.key, want)
		case ok:
			k, seq, good := c.codec.decode(v)
			if idx, _ := keyIndex(k); !good || idx != int(o.key) || seq != want {
				out.fail("GET user%012d returned a value for key %q seq %d, want seq %d", o.key, k, seq, want)
			}
		}
	case kSet:
		if err := c.rr.simple("OK"); err != nil {
			return c.replyErr(err, o, out)
		}
	case kScan:
		return c.checkScan(o, out)
	}
	return nil
}

// replyErr counts an error reply as a failed op; anything else (a broken
// connection, a desynced stream) ends the run.
func (c *client) replyErr(err error, o op, out *outcome) error {
	var e errReply
	if errors.As(err, &e) {
		out.fail("%v for %s user%012d", err, o.kind, o.key)
		return nil
	}
	return fmt.Errorf("reading reply to %s user%012d: %w", o.kind, o.key, err)
}

// checkScan verifies a SCAN reply: at most the limit, keys strictly
// ascending, every value belongs to its key, and no loaded key in the
// covered range is missing.
func (c *client) checkScan(o op, out *outcome) error {
	n, err := c.rr.arrayLen()
	if err != nil {
		return c.replyErr(err, o, out)
	}
	if n%2 != 0 || n/2 > int(o.scan) {
		out.fail("SCAN user%012d %d returned %d elements", o.key, o.scan, n)
	}
	next := int(o.key) // the next loaded key the scan must return
	prev := -1
	bad := false
	for i := 0; i < n/2; i++ {
		k, _, err := c.rr.bulk(c.rbuf)
		if err != nil {
			return err
		}
		idx, ok := keyIndex(k)
		c.rbuf = k[:0]
		v, _, err := c.rr.bulk(c.rvbuf)
		if err != nil {
			return err
		}
		c.rvbuf = v[:0]
		vk, _, good := c.codec.decode(v)
		vidx, _ := keyIndex(vk)
		switch {
		case bad:
		case !ok || idx <= prev:
			bad = true
			out.fail("SCAN user%012d: key %q out of order after user%012d", o.key, k, prev)
		case !good || vidx != idx:
			bad = true
			out.fail("SCAN user%012d: value for user%012d carries key %q", o.key, idx, vk)
		case idx < c.keys && idx != next:
			bad = true
			out.fail("SCAN user%012d: loaded key user%012d missing (got user%012d)", o.key, next, idx)
		}
		prev = idx
		if idx < c.keys {
			next = idx + 1
		}
	}
	if !bad && n/2 < int(o.scan) && next < c.keys {
		out.fail("SCAN user%012d %d stopped at %d pairs with loaded key user%012d not returned", o.key, o.scan, n/2, next)
	}
	return nil
}

// batch sends ops pipelined in one flush, then reads and checks each reply.
func (c *client) batch(ops []op, out *outcome) error {
	wants := make([]uint32, len(ops))
	for i, o := range ops {
		wants[i] = c.send(o)
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	for i, o := range ops {
		if err := c.check(o, wants[i], out); err != nil {
			return err
		}
	}
	return nil
}

// open runs one connection's open-loop schedule: a sender that writes
// each op when due and a reader that checks replies in order.
func (c *client) open(r *openResult, t0 time.Time, out *outcome) error {
	n := len(r.sched)
	r.sentAt = make([]int64, n)
	r.recvAt = make([]int64, n)
	wants := make([]uint32, n)
	if c.ords != nil {
		r.ord = make([]uint32, n)
	}
	// One slot per op: the sender never blocks on the reader.
	ready := make(chan int, n)
	var sendErr error
	go func() {
		defer close(ready)
		// The sender keeps one thread whose timer slack is 1ns, so its
		// sleeps end within microseconds of the due time instead of the
		// default 50us slack.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		for i := 0; i < n; {
			now := time.Since(t0)
			if due := r.sched[i].due; due > now {
				nanosleep(due - now)
				now = time.Since(t0)
			}
			j := i
			for ; j < n && r.sched[j].due <= now; j++ {
				wants[j] = c.send(r.sched[j].op)
				if c.ords != nil {
					r.ord[j] = c.ords[ordKey(kindOf(r.sched[j].kind), int(r.sched[j].key))]
				}
			}
			if sendErr = c.bw.Flush(); sendErr != nil {
				return
			}
			sent := int64(time.Since(t0))
			for ; i < j; i++ {
				r.sentAt[i] = sent
				ready <- i
			}
		}
	}()
	var readErr error
	for i := range ready {
		if readErr != nil {
			continue // drain so the sender finishes
		}
		if readErr = c.check(r.sched[i].op, wants[i], out); readErr == nil {
			r.recvAt[i] = int64(time.Since(t0))
		}
	}
	if sendErr != nil {
		return sendErr
	}
	return readErr
}

// keyInto writes workload.KeyOf(idx) into dst without allocating.
func keyInto(dst []byte, idx int) []byte {
	dst = append(dst[:0], "user000000000000"...)
	for j := 15; j >= 4; j-- {
		dst[j] = byte('0' + idx%10)
		idx /= 10
	}
	return dst
}
