package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// failedLatency stands in for the latency of an op that failed or was
// refused, so it counts as missing every latency limit.
const failedLatency = time.Hour

// generator replays a pre-drawn stream of n ops open-loop: op i is due at
// start + i/rate whatever earlier ops did, and its latency runs from that
// due time, so a stall shows up in every op queued behind it. A rate of 0
// makes every op due at start, which saturates the system under test.
//
// It runs in this process on `workers` goroutines (never more than the
// machine has CPUs); each worker owns whatever connection its issue
// function uses.
type generator struct {
	workers int
	// owner pins op i to one worker, in stream order; nil lets each
	// worker take the next unclaimed op.
	owner func(i int) int
	// wait blocks worker w until the given time; nil sleeps. Daemon
	// workers read notification events from their connection instead.
	wait func(w int, until time.Time)
	// issue sends op i on behalf of worker w and returns once it is acked.
	issue func(w, i int) error
}

// phase is the record of one replay.
type phase struct {
	n     int
	rate  float64
	start time.Time
	// elapsed runs from start to the last ack.
	elapsed time.Duration
	// ack is due-to-ack per op, rtt send-to-ack and late due-to-send.
	ack, rtt, late []time.Duration
	failed         int
	firstErr       error
	backlogMax     int64
	cpu            time.Duration
	mallocs        uint64
	allocBytes     uint64
	gcCycles       uint32
}

// due is the scheduled send time of op i.
func (p *phase) due(i int) time.Time {
	if p.rate <= 0 {
		return p.start
	}
	return p.start.Add(time.Duration(float64(i) * float64(time.Second) / p.rate))
}

// newPhase fixes a phase's schedule; the generator starts it shortly
// after, so set-up work done between the two is not charged to op 0.
func newPhase(n int, rate float64) *phase {
	return &phase{n: n, rate: rate, start: time.Now().Add(2 * time.Millisecond)}
}

// run replays p's ops and fills in its record.
func (g *generator) run(p *phase) {
	p.ack = make([]time.Duration, p.n)
	p.rtt = make([]time.Duration, p.n)
	p.late = make([]time.Duration, p.n)
	var queues [][]int
	if g.owner != nil {
		queues = make([][]int, g.workers)
		for i := 0; i < p.n; i++ {
			w := g.owner(i)
			queues[w] = append(queues[w], i)
		}
	}
	var (
		next, started, backlogMax atomic.Int64
		mu                        sync.Mutex
		wg                        sync.WaitGroup
	)
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; ; k++ {
				i := 0
				if queues != nil {
					if k >= len(queues[w]) {
						return
					}
					i = queues[w][k]
				} else if i = int(next.Add(1) - 1); i >= p.n {
					return
				}
				due := p.due(i)
				if time.Now().Before(due) {
					if g.wait != nil {
						g.wait(w, due)
					} else {
						time.Sleep(time.Until(due))
					}
				}
				send := time.Now()
				sent := started.Add(1)
				if p.rate > 0 {
					dueCount := int64(send.Sub(p.start).Seconds()*p.rate) + 1
					if dueCount > int64(p.n) {
						dueCount = int64(p.n)
					}
					for b := dueCount - sent; ; {
						cur := backlogMax.Load()
						if b <= cur || backlogMax.CompareAndSwap(cur, b) {
							break
						}
					}
				}
				err := g.issue(w, i)
				acked := time.Now()
				p.ack[i], p.rtt[i], p.late[i] = acked.Sub(due), acked.Sub(send), send.Sub(due)
				if err != nil {
					p.ack[i] = failedLatency
					mu.Lock()
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	p.elapsed = time.Since(p.start)
	p.cpu = cpuTime() - cpu0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	p.backlogMax = backlogMax.Load()
}
