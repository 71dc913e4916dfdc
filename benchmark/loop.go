package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// opResult is what one closed-loop operation reports back.
type opResult struct {
	class string // latency class the operation's wall time is filed under
	rows  int    // rows audited (or, in maintain, rows induced from)
	err   error  // wrong output, non-200 status or a returned error
	// parts are timings taken inside the operation (maintain's induce,
	// reinduce, publish and get; serve's first-byte times), filed under
	// their own class without counting as operations.
	parts []part
}

type part struct {
	class string
	ms    float64
}

// opFunc runs client c's i-th operation. tr and op are the tracer and the
// operation identifier during the traced loop, nil and 0 otherwise.
type opFunc func(c, i int, tr *tracer, op int) opResult

// loopStats is the outcome of one closed loop.
type loopStats struct {
	wall      time.Duration
	rows      int64
	attempted int
	failed    int
	firstErr  error
	lat       map[string][]float64 // wall ms per class, raw client-side samples

	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNs  uint64
	peakHeap   uint64 // max sampled live heap above the loop's starting heap; 0 unless sampled
}

func (ls *loopStats) rowsPerSec() float64 { return float64(ls.rows) / ls.wall.Seconds() }

// runLoop drives `clients` callers for d: each sends its next operation
// only after the previous one returned (a closed loop — the callers of
// this system are load jobs, the CLI and the coordinator, which all wait
// for their reply). No operation starts after the deadline; the wall time
// runs until the last one returns.
func runLoop(d time.Duration, clients int, run opFunc, tr *tracer, sampleHeap bool) loopStats {
	logs := make([]loopStats, clients) // one per client, merged after the loop

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var heap *heapSampler
	if sampleHeap {
		heap = startHeapSampler()
	}

	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lg := &logs[c]
			lg.lat = make(map[string][]float64)
			for i := 0; time.Now().Before(deadline); i++ {
				op := tr.newOp()
				t0 := time.Now()
				res := run(c, i, tr, op)
				lg.lat[res.class] = append(lg.lat[res.class], ms(time.Since(t0)))
				for _, p := range res.parts {
					lg.lat[p.class] = append(lg.lat[p.class], p.ms)
				}
				lg.attempted++
				lg.rows += int64(res.rows)
				if res.err != nil {
					lg.failed++
					if lg.firstErr == nil {
						lg.firstErr = res.err
					}
				}
			}
		}()
	}
	wg.Wait()
	ls := loopStats{wall: time.Since(start), lat: make(map[string][]float64)}
	if heap != nil {
		peak := heap.stop()
		if peak > before.HeapAlloc {
			ls.peakHeap = peak - before.HeapAlloc
		}
	}
	runtime.ReadMemStats(&after)
	ls.allocBytes = after.TotalAlloc - before.TotalAlloc
	ls.mallocs = after.Mallocs - before.Mallocs
	ls.gcCycles = after.NumGC - before.NumGC
	ls.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	for i := range logs {
		lg := &logs[i]
		ls.rows += lg.rows
		ls.attempted += lg.attempted
		ls.failed += lg.failed
		if ls.firstErr == nil {
			ls.firstErr = lg.firstErr
		}
		for class, xs := range lg.lat {
			ls.lat[class] = append(ls.lat[class], xs...)
		}
	}
	return ls
}

// heapSampler polls the live heap without stopping the world
// (runtime/metrics, not ReadMemStats), so sampling does not itself show
// up in the latencies it runs beside.
type heapSampler struct {
	quit chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{quit: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			select {
			case <-hs.quit:
				hs.done <- peak
				return
			case <-tick.C:
				metrics.Read(sample)
				if v := sample[0].Value.Uint64(); v > peak {
					peak = v
				}
			}
		}
	}()
	return hs
}

func (hs *heapSampler) stop() uint64 {
	close(hs.quit)
	return <-hs.done
}
