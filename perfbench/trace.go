package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/prismdb/prismdb/internal/core"
	"github.com/prismdb/prismdb/workload"
)

// tracedEngine is the traced run's decorator around the engine handed to
// server.New: it implements server.Engine plus the traced write calls,
// times every GET and SET call into the engine (the workloads send no
// deletes), and keeps the spans in memory until the run ends. Recording is
// on only while a traced phase runs.
type tracedEngine struct {
	db *core.DB
	on atomic.Bool

	mu     sync.Mutex
	ords   map[uint64]uint32 // per (kind, key) call ordinal, joins wire spans
	gets   []engSpan
	puts   []engSpan
	stages []core.OpTrace // write-path stage timings from PutTraced
}

// engSpan is one engine call: which op it served and how long it took in
// host time and in the engine's virtual time.
type engSpan struct {
	key       uint64 // ordKey(kind, key index)
	ord       uint32
	dur, vdur int64
}

func newTracedEngine(db *core.DB) *tracedEngine {
	return &tracedEngine{db: db, ords: map[uint64]uint32{}}
}

// start clears the spans and begins recording; ordinals restart at 1.
func (t *tracedEngine) start() {
	t.mu.Lock()
	t.ords = map[uint64]uint32{}
	t.gets, t.puts, t.stages = t.gets[:0], t.puts[:0], t.stages[:0]
	t.mu.Unlock()
	t.on.Store(true)
}

func (t *tracedEngine) stop() { t.on.Store(false) }

func (t *tracedEngine) record(dst *[]engSpan, kind int, key []byte, dur, vdur time.Duration) {
	idx, _ := keyIndex(key)
	k := ordKey(kind, idx)
	t.mu.Lock()
	t.ords[k]++
	*dst = append(*dst, engSpan{key: k, ord: t.ords[k], dur: int64(dur), vdur: int64(vdur)})
	t.mu.Unlock()
}

func (t *tracedEngine) GetBuf(key, buf []byte) ([]byte, core.Tier, time.Duration, error) {
	if !t.on.Load() {
		return t.db.GetBuf(key, buf)
	}
	t0 := time.Now()
	v, tier, lat, err := t.db.GetBuf(key, buf)
	t.record(&t.gets, kGet, key, time.Since(t0), lat)
	return v, tier, lat, err
}

func (t *tracedEngine) Put(key, value []byte) (time.Duration, error) {
	if !t.on.Load() {
		return t.db.Put(key, value)
	}
	t0 := time.Now()
	lat, err := t.db.Put(key, value)
	t.record(&t.puts, kSet, key, time.Since(t0), lat)
	return lat, err
}

// PutBatch charges each pair an equal share of the batch's time, as the
// server does for its per-op histograms.
func (t *tracedEngine) PutBatch(pairs []core.KV) (time.Duration, error) {
	if !t.on.Load() {
		return t.db.PutBatch(pairs)
	}
	t0 := time.Now()
	lat, err := t.db.PutBatch(pairs)
	n := time.Duration(len(pairs))
	d := time.Since(t0)
	for _, p := range pairs {
		t.record(&t.puts, kSet, p.Key, d/n, lat/n)
	}
	return lat, err
}

func (t *tracedEngine) PutTraced(key, value []byte, tr *core.OpTrace) (time.Duration, error) {
	if !t.on.Load() {
		return t.db.PutTraced(key, value, tr)
	}
	t0 := time.Now()
	lat, err := t.db.PutTraced(key, value, tr)
	t.record(&t.puts, kSet, key, time.Since(t0), lat)
	t.mu.Lock()
	t.stages = append(t.stages, *tr)
	t.mu.Unlock()
	return lat, err
}

func (t *tracedEngine) Delete(key []byte) (time.Duration, error) { return t.db.Delete(key) }

func (t *tracedEngine) DeleteTraced(key []byte, tr *core.OpTrace) (time.Duration, error) {
	return t.db.DeleteTraced(key, tr)
}

// NewIterator is not timed here: the server drives and closes the
// iterator itself, so the traced run times scans by replaying them
// directly (see replayScans).
func (t *tracedEngine) NewIterator(start []byte, limitHint int) *core.Iterator {
	return t.db.NewIterator(start, limitHint)
}

func (t *tracedEngine) Stats() core.Stats      { return t.db.Stats() }
func (t *tracedEngine) Elapsed() time.Duration { return t.db.Elapsed() }

// spans returns the recorded spans, indexed by (kind, key, ordinal).
func (t *tracedEngine) spans() map[[2]uint64]engSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[[2]uint64]engSpan, len(t.gets)+len(t.puts))
	for _, ss := range [][]engSpan{t.gets, t.puts} {
		for _, s := range ss {
			m[[2]uint64{s.key, uint64(s.ord)}] = s
		}
	}
	return m
}

// scanSpan is one replayed scan.
type scanSpan struct {
	dur, vdur int64
	keys      int
}

// replayScans re-runs the traced phase's scans straight to the engine
// (NewIterator, iterate to the limit, Close) and times each; the result is
// indexed like open. The replay runs after the phase, on the same data
// plus the phase's inserts.
func replayScans(db *core.DB, open []openRecord) ([]scanSpan, error) {
	out := make([]scanSpan, len(open))
	var kb []byte
	for i, o := range open {
		if o.Kind != workload.OpScan {
			continue
		}
		kb = keyInto(kb, int(o.Key))
		t0 := time.Now()
		it := db.NewIterator(kb, int(o.Scan))
		n := 0
		for it.Valid() && n < int(o.Scan) {
			n++
			it.Next()
		}
		err := it.Close()
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		out[i] = scanSpan{dur: int64(d), vdur: int64(it.Latency()), keys: n}
	}
	return out, nil
}
