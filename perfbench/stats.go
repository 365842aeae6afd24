package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/prismdb/prismdb/internal/metrics"
)

// quantile returns the q-quantile of xs, sorting xs in place. It uses the
// nearest rank, so every reported value is one that was measured.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// histQuantileUs is a latency quantile of a log-bucketed histogram, in
// microseconds, interpolated linearly inside the bucket the quantile falls
// in (the histogram keeps counts per bucket, not the samples).
func histQuantileUs(h *metrics.Histogram, q float64) float64 {
	bs := h.CumulativeBuckets()
	if len(bs) == 0 {
		return 0
	}
	target := q * float64(h.Count())
	lo, prev := float64(h.Min()), 0.0
	for _, b := range bs {
		cum := float64(b.Cum)
		if cum >= target {
			hi := float64(b.Bound)
			if m := float64(h.Max()); hi > m {
				hi = m
			}
			lo = max(lo, float64(metrics.BucketBound(metrics.BucketIndex(b.Bound-1))))
			frac := (target - prev) / (cum - prev)
			return (lo + frac*(hi-lo)) / 1e3
		}
		prev = cum
	}
	return float64(h.Max()) / 1e3
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memSnap is the Go runtime's view of allocation and GC at one instant.
type memSnap struct {
	alloc, gcs uint64
	pause      time.Duration
	at         time.Time
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{alloc: ms.TotalAlloc, gcs: uint64(ms.NumGC), pause: time.Duration(ms.PauseTotalNs), at: time.Now()}
}

// setRuntime reports the runtime block between two snapshots taken around
// ops operations.
func setRuntime(o *outcome, a, b memSnap, ops int64) {
	o.set("runtime.alloc_b_per_op", ratio(float64(b.alloc-a.alloc), float64(ops)), ops)
	o.set("runtime.gc_per_kop", ratio(float64(b.gcs-a.gcs)*1000, float64(ops)), ops)
	o.set("runtime.gc_pause_frac", ratio(float64(b.pause-a.pause), float64(b.at.Sub(a.at))), int64(b.gcs-a.gcs))
}

// printProvenance writes the run's provenance as one comment line: seed,
// host fingerprint and the workload's sizes, rates and WAL policy.
func printProvenance(w *workloadDef, cfg runConfig) {
	p := map[string]any{
		"workload":   w.name,
		"why":        w.why,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
	for k, v := range w.provenance() {
		p[k] = v
	}
	b, _ := json.Marshal(p) // a map of plain values always marshals
	fmt.Printf("# provenance %s\n", b)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source revision from PRISMPERF_COMMIT, or "unknown":
// benchmark checkouts are plain file trees, built without VCS stamps.
func commit() string {
	if c := os.Getenv("PRISMPERF_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
