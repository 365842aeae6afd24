package bench

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/prismdb/prismdb/internal/core"
	"github.com/prismdb/prismdb/internal/simdev"
)

// benchContendedGets hammers ONE partition with G goroutines issuing warm
// NVM/DRAM-hit GETs and reports wall-clock throughput. Before the lock-free
// read path, every GET serialized on the partition mutex, so adding
// goroutines to a hot partition bought nothing (and on multi-core hosts,
// cache-line ping-pong made it regress); now concurrent GETs share the
// published read view and only meet at a handful of atomics. On a
// multi-core host the goroutines=8 row should show ≥ 2× the goroutines=1
// wall-Kops; on a single-core host (this repo's CI container) the rows
// collapse to the same figure — the property under test there is "no worse
// than the serialized baseline".
func benchContendedGets(b *testing.B, goroutines int) {
	opts := core.Options{
		Partitions:      1, // one hot partition: the contention worst case
		NVM:             simdev.New(simdev.NVMParams(1 << 30)),
		Flash:           simdev.New(simdev.QLCParams(1 << 30)),
		Cache:           simdev.NewPageCache(64 << 20),
		NVMBudget:       256 << 20, // everything NVM-resident: no compactions
		TrackerCapacity: 8192,
		KeySpace:        1 << 20,
		Seed:            1,
	}
	db, err := core.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const keys = 4096
	keyBuf := make([][]byte, keys)
	for i := 0; i < keys; i++ {
		keyBuf[i] = []byte(fmt.Sprintf("user%08d", i))
		if _, err := db.Put(keyBuf[i], make([]byte, 512)); err != nil {
			b.Fatal(err)
		}
	}
	warm := make([]byte, 0, 1024)
	for _, k := range keyBuf { // page cache, tracker, value buffers
		v, tier, _, err := db.GetBuf(k, warm)
		if err != nil || tier == core.TierMiss {
			b.Fatalf("warm get: tier=%v err=%v", tier, err)
		}
		warm = v[:0]
	}

	const totalOps = 400_000
	perG := totalOps / goroutines
	b.ResetTimer()
	var elapsed time.Duration
	for iter := 0; iter < b.N; iter++ {
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				buf := make([]byte, 0, 1024)
				for i := 0; i < perG; i++ {
					k := keyBuf[(seed*2654435761+i*2246822519)%keys]
					v, tier, _, err := db.GetBuf(k, buf)
					if err != nil || tier == core.TierMiss {
						b.Errorf("get: tier=%v err=%v", tier, err)
						return
					}
					buf = v[:0]
				}
			}(g + 1)
		}
		wg.Wait()
		elapsed += time.Since(start)
	}
	total := float64(perG*goroutines) * float64(b.N)
	b.ReportMetric(total/elapsed.Seconds()/1e3, "wall-kops")
	b.ReportMetric(0, "ns/op") // the burst, not b.N, is the unit of work
}

// BenchmarkContendedGets is the lock-free GET scaling row for
// BENCH_<date>.json: wall-Kops of a single hot partition at 1/2/4/8
// concurrent readers.
func BenchmarkContendedGets(b *testing.B) {
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			benchContendedGets(b, g)
		})
	}
}

// benchContendedSets hammers ONE partition with G goroutines issuing
// class-stable overwrites (in-place NVM updates, no compactions) and
// reports wall-clock throughput. An uncontended SET applies directly as a
// batch of one; contended SETs ride the owner's MPSC intent ring, where the
// critical section, the read-state drain, the WAL group append and the
// republication amortize over the whole batch. On a multi-core host the
// batches grow with the burst; on a single core the win comes from the
// per-batch cost amortization alone.
func benchContendedSets(b *testing.B, goroutines int) {
	opts := core.Options{
		Partitions:      1, // one hot partition: the contention worst case
		NVM:             simdev.New(simdev.NVMParams(1 << 30)),
		Flash:           simdev.New(simdev.QLCParams(1 << 30)),
		Cache:           simdev.NewPageCache(64 << 20),
		NVMBudget:       256 << 20, // everything NVM-resident: no compactions
		TrackerCapacity: 8192,
		KeySpace:        1 << 20,
		Seed:            1,
	}
	db, err := core.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const keys = 4096
	keyBuf := make([][]byte, keys)
	for i := 0; i < keys; i++ {
		keyBuf[i] = []byte(fmt.Sprintf("user%08d", i))
		if _, err := db.Put(keyBuf[i], make([]byte, 512)); err != nil {
			b.Fatal(err)
		}
	}

	const totalOps = 200_000
	perG := totalOps / goroutines
	b.ResetTimer()
	var elapsed time.Duration
	for iter := 0; iter < b.N; iter++ {
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				val := make([]byte, 512) // safe to reuse: Put returns only after apply
				for i := 0; i < perG; i++ {
					k := keyBuf[(seed*2654435761+i*2246822519)%keys]
					if _, err := db.Put(k, val); err != nil {
						b.Errorf("put: %v", err)
						return
					}
				}
			}(g + 1)
		}
		wg.Wait()
		elapsed += time.Since(start)
	}
	total := float64(perG*goroutines) * float64(b.N)
	b.ReportMetric(total/elapsed.Seconds()/1e3, "wall-kops")
	b.ReportMetric(0, "ns/op") // the burst, not b.N, is the unit of work
}

// BenchmarkContendedSets is the owner-goroutine write path's scaling row
// for BENCH_<date>.json: wall-Kops of a single hot partition at 1/2/4/8
// concurrent writers through the per-partition intent queue.
func BenchmarkContendedSets(b *testing.B) {
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			benchContendedSets(b, g)
		})
	}
}

// BenchmarkContendedMixed is the YCSB-A-shaped row (50% reads, 50%
// updates) on one hot partition at 8 goroutines: lock-free GETs racing the
// owner write queue — the serving mix where both fast paths must coexist.
func BenchmarkContendedMixed(b *testing.B) {
	opts := core.Options{
		Partitions:      1,
		NVM:             simdev.New(simdev.NVMParams(1 << 30)),
		Flash:           simdev.New(simdev.QLCParams(1 << 30)),
		Cache:           simdev.NewPageCache(64 << 20),
		NVMBudget:       256 << 20,
		TrackerCapacity: 8192,
		KeySpace:        1 << 20,
		Seed:            1,
	}
	db, err := core.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const keys = 4096
	keyBuf := make([][]byte, keys)
	for i := 0; i < keys; i++ {
		keyBuf[i] = []byte(fmt.Sprintf("user%08d", i))
		if _, err := db.Put(keyBuf[i], make([]byte, 512)); err != nil {
			b.Fatal(err)
		}
	}

	const goroutines = 8
	const totalOps = 200_000
	perG := totalOps / goroutines
	b.ResetTimer()
	var elapsed time.Duration
	for iter := 0; iter < b.N; iter++ {
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				buf := make([]byte, 0, 1024)
				val := make([]byte, 512)
				for i := 0; i < perG; i++ {
					k := keyBuf[(seed*2654435761+i*2246822519)%keys]
					if i%2 == 0 {
						if _, err := db.Put(k, val); err != nil {
							b.Errorf("put: %v", err)
							return
						}
						continue
					}
					v, tier, _, err := db.GetBuf(k, buf)
					if err != nil || tier == core.TierMiss {
						b.Errorf("get: tier=%v err=%v", tier, err)
						return
					}
					buf = v[:0]
				}
			}(g + 1)
		}
		wg.Wait()
		elapsed += time.Since(start)
	}
	total := float64(perG*goroutines) * float64(b.N)
	b.ReportMetric(total/elapsed.Seconds()/1e3, "wall-kops")
	b.ReportMetric(0, "ns/op")
}
