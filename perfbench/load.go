package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// openLoop offers requests at a fixed rate until stop closes, over conns
// connections. Each connection's client takes the next request in the
// schedule, sleeps until it is due and sends it, so no request is handed
// from a dispatcher to a client across threads. A request due while every
// connection is busy waits on the client side; its latency still counts
// from its due time. do(i) sends request i.
func openLoop(rate float64, conns int, stop <-chan struct{}, do func(i int) sample) []sample {
	interval := time.Duration(float64(time.Second) / rate)
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []sample
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				due := t0.Add(time.Duration(i) * interval)
				// nanosleep, not a runtime timer: runtime timers wake up to a
				// millisecond late when the process idles, which would swamp
				// sub-millisecond requests.
				for d := time.Until(due); d > 0; d = time.Until(due) {
					ts := syscall.NsecToTimespec(int64(d))
					_ = syscall.Nanosleep(&ts, nil)
				}
				select {
				case <-stop:
					return
				default:
				}
				sent := time.Now()
				s := do(i)
				s.lat, s.late = s.end.Sub(due), sent.Sub(due)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs conns clients that each send their next request as soon
// as the previous one completes, until n requests were sent (n > 0) or d
// elapsed (d > 0). It returns the samples and the wall time until the last
// response.
func closedLoop(conns, n int, d time.Duration, do func(i int) sample) ([]sample, time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []sample
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (n > 0 && i >= n) || (d > 0 && time.Since(t0) >= d) {
					return
				}
				s := do(i)
				s.lat = s.rtt
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// after returns a channel closed after d.
func after(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	time.AfterFunc(d, func() { close(ch) })
	return ch
}

// tally counts one phase's outcomes.
type tally struct {
	sent, ok, wrong, shed, budget, deadline, errors int
}

func count(samples []sample) tally {
	t := tally{sent: len(samples)}
	for _, s := range samples {
		switch s.outcome {
		case outOK:
			t.ok++
		case outWrong:
			t.wrong++
		case outShed:
			t.shed++
		case outBudget:
			t.budget++
		case outDeadline:
			t.deadline++
		default:
			t.errors++
		}
	}
	return t
}

func (t *tally) add(o tally) {
	t.sent += o.sent
	t.ok += o.ok
	t.wrong += o.wrong
	t.shed += o.shed
	t.budget += o.budget
	t.deadline += o.deadline
	t.errors += o.errors
}

func (t tally) failed() int { return t.sent - t.ok }

func logPhase(name string, samples []sample, wall time.Duration) tally {
	t := count(samples)
	logf("%-14s sent %6d ok %6d wrong %d shed %d budget %d deadline %d errors %d  p50 %.3fms p99 %.3fms  %.1f/s",
		name, t.sent, t.ok, t.wrong, t.shed, t.budget, t.deadline, t.errors,
		ms(percentile(samples, 0.5)), ms(percentile(samples, 0.99)), float64(t.ok)/wall.Seconds())
	return t
}

// byEnd returns the samples in completion order, split into k equal
// consecutive windows.
func byEnd(samples []sample, k int) [][]sample {
	sorted := append([]sample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].end.Before(sorted[j].end) })
	n := len(sorted) / k
	w := make([][]sample, k)
	for i := range w {
		w[i] = sorted[i*n : (i+1)*n]
	}
	return w
}

// percentile is the q-quantile latency of a phase: the median over up to
// ten consecutive windows of at least 100 requests of each window's
// q-quantile, so one disturbed stretch does not set a run's figure. A phase
// of fewer than 200 requests reports its plain q-quantile.
func percentile(samples []sample, q float64) time.Duration {
	k := min(len(samples)/100, 10)
	if k < 2 {
		return latencyQuantile(samples, q)
	}
	var v []float64
	for _, w := range byEnd(samples, k) {
		v = append(v, float64(latencyQuantile(w, q)))
	}
	return time.Duration(medianOf(v))
}

// latencyQuantile is the q-quantile of the samples' latencies, a request
// that did not succeed counting as maxTimeout.
func latencyQuantile(samples []sample, q float64) time.Duration {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = float64(s.lat)
		if s.outcome != outOK {
			v[i] = float64(maxTimeout)
		}
	}
	return time.Duration(quantile(v, q))
}

// quantile is the nearest-rank q-quantile of v (0 when empty); v is sorted
// in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
