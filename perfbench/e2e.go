package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// session is a workload's generated catalog open in a running server.
type session struct {
	w    *workload
	docs []genDoc
	in   *instance
	// walDir is the WAL directory of the running server ("" for the
	// read-only workloads).
	walDir string
	// total counts every measured request of the run.
	total tally
	// flight, in the traced run, collects the server's flight records.
	flight *flightLog
}

// setUp opens the generated catalog w.setups times, each time in a fresh
// server (with a fresh WAL for write_mix), and keeps the last one running.
// It returns the CPU time of each open and the live heap the last catalog
// added, measured after a forced GC.
func setUp(w *workload, docs []genDoc, tmp string) (*session, []float64, float64, error) {
	ss := &session{w: w, docs: docs}
	var err error
	var cpus, walls []float64
	// The baseline precedes the first server: a stopped server's catalog can
	// stay reachable until the next server replaces the process-wide expvar
	// registry.
	before := liveHeap()
	for k := 0; k < w.setups; k++ {
		if ss.in != nil {
			if err := ss.in.stop(); err != nil {
				return nil, nil, 0, err
			}
			ss.in = nil
		}
		if w.writes > 0 {
			ss.walDir = filepath.Join(tmp, fmt.Sprintf("wal%d", k))
			if err := os.MkdirAll(ss.walDir, 0o755); err != nil {
				return nil, nil, 0, err
			}
		}
		// Every open starts from a collected heap, so the garbage of the one
		// before does not set its GC pace.
		liveHeap()
		if ss.in, err = start(ss.walDir); err != nil {
			return nil, nil, 0, err
		}
		cpu, wall, err := ss.in.timedOpen(docs)
		if err != nil {
			ss.in.stop()
			return nil, nil, 0, err
		}
		cpus, walls = append(cpus, cpu), append(walls, wall)
	}
	heap := liveHeap() - before
	logf("set-up CPU %.3f s, wall %.3f s (medians of %d), catalog heap %.1f MB",
		medianOf(cpus), medianOf(walls), len(cpus), heap/(1<<20))
	if err := ss.in.verify(w, docs); err != nil {
		ss.in.stop()
		return nil, nil, 0, fmt.Errorf("after set-up: %w", err)
	}
	return ss, cpus, heap, nil
}

// timedOpen opens the catalog and returns the CPU time and the wall time
// the open took, in seconds. The CPU time is the process's: the server's
// work and the client's upload, without the time the host's hypervisor
// gave to other tenants (steal), which on a shared host moved an open's
// wall time by up to 70% between runs minutes apart.
func (in *instance) timedOpen(docs []genDoc) (cpu, wall float64, err error) {
	c0 := cpuTime()
	d, err := in.open(docs)
	return (cpuTime() - c0).Seconds(), d.Seconds(), err
}

// liveHeap forces a GC and returns the live heap in bytes. The second
// cycle frees what the first one's finalizers released (every published
// epoch carries one).
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// readAt sends read i of the workload's mix.
func (ss *session) readAt(i int) sample {
	s := ss.in.query(ss.w, ss.docs, ss.w.mix[i%len(ss.w.mix)])
	ss.flight.tick()
	return s
}

// writeAt sends write j.
func (ss *session) writeAt(j int) sample {
	s := ss.in.write(ss.w, ss.w.docs[0].name, j)
	ss.flight.tick()
	return s
}

// warmUp runs the read mix closed-loop, and a few write pairs, so lazy
// set-up (the evaluator's rank map, pooled scratch, the first GC cycles
// after open) is done before any timed phase.
func (ss *session) warmUp() error {
	reads, wall := closedLoop(runtime.NumCPU(), 0, warmFor, ss.readAt)
	t := logPhase("warm-up reads", reads, wall)
	if ss.w.writes > 0 {
		writes, wall := closedLoop(1, warmWrites, 0, func(j int) sample { return ss.writeAt(j) })
		t.add(logPhase("warm-up writes", writes, wall))
	}
	if t.failed() > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", t.failed(), t.sent)
	}
	runtime.GC()
	return nil
}

// phases holds one run's measured samples.
type phases struct {
	open   []sample // open-loop reads
	closed []sample // closed-loop reads (query workloads) or writes (write_mix)
	// cpu and wall are the process's CPU time and the wall time over the
	// back-to-back phase.
	cpu, wall time.Duration
}

// add appends q's samples and times to p.
func (p *phases) add(q phases) {
	p.open = append(p.open, q.open...)
	p.closed = append(p.closed, q.closed...)
	p.cpu += q.cpu
	p.wall += q.wall
}

// measure runs the timed phases. Query workloads: an open-loop phase at the
// workload's fixed rate over nproc connections, then back-to-back reads
// from one connection. The write workload: nWrites back-to-back
// visibility-acked writes from one connection (from write number
// firstWrite on) while the other connection offers reads open-loop.
//
// The back-to-back stream runs on one connection on every workload: nproc
// clients saturate every CPU, and on a 2-vCPU host whose vCPUs share a
// core with other tenants the throughput they reach moved by 40% between
// runs minutes apart, against 6% for one client.
func (ss *session) measure(name string, openFor, closedFor time.Duration, firstWrite, nWrites int) phases {
	var p phases
	conns := runtime.NumCPU()
	if nWrites > 0 {
		stop := make(chan struct{})
		done := make(chan []sample)
		cpu0 := cpuTime()
		go func() { done <- openLoop(ss.w.openQPS, conns-1, stop, ss.readAt) }()
		p.closed, p.wall = closedLoop(1, nWrites, 0, func(j int) sample { return ss.writeAt(firstWrite + j) })
		close(stop)
		p.open = <-done
		p.cpu = cpuTime() - cpu0
		ss.total.add(logPhase(name+" reads", p.open, p.wall))
		ss.total.add(logPhase(name+" writes", p.closed, p.wall))
		return p
	}
	p.open = openLoop(ss.w.openQPS, conns, after(openFor), ss.readAt)
	ss.total.add(logPhase(name+" open", p.open, openFor))
	if closedFor > 0 {
		runtime.GC()
		cpu0 := cpuTime()
		p.closed, p.wall = closedLoop(1, 0, closedFor, ss.readAt)
		p.cpu = cpuTime() - cpu0
		ss.total.add(logPhase(name+" closed", p.closed, p.wall))
	}
	return p
}

// cpuTime is the CPU time, user and system, the process has used so far.
// Time the host's hypervisor gives to other tenants (steal) is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// restart closes the server and reopens the catalog in a fresh one over the
// same WAL directory (replaying it), n times, checking the reopened catalog
// against the references each time. Those checks run every query of the
// catalog, so the reopened server's lazy set-up is done when it returns. It
// returns the CPU time and the wall time of each reopen.
func (ss *session) restart(n int) (cpus, walls []float64, err error) {
	for k := 0; k < n; k++ {
		if err := ss.in.stop(); err != nil {
			return nil, nil, err
		}
		ss.in = nil
		liveHeap()
		if ss.in, err = start(ss.walDir); err != nil {
			return nil, nil, err
		}
		cpu, wall, err := ss.in.timedOpen(ss.docs)
		if err != nil {
			return nil, nil, err
		}
		cpus, walls = append(cpus, cpu), append(walls, wall)
		if err := ss.in.verify(ss.w, ss.docs); err != nil {
			return nil, nil, fmt.Errorf("after restart: %w", err)
		}
	}
	return cpus, walls, nil
}

// runE2E measures the end-to-end metrics of one untraced run.
func runE2E(w *workload, tmp string) (*result, error) {
	docs, err := w.generate()
	if err != nil {
		return nil, err
	}
	ss, setups, heap, err := setUp(w, docs, tmp)
	if err != nil {
		return nil, err
	}
	defer func() {
		if ss.in != nil {
			ss.in.stop()
		}
	}()
	if err := ss.warmUp(); err != nil {
		return nil, err
	}
	var p phases
	var restarts, restartWalls []float64
	reopen := func(n int) error {
		if err := ss.in.verify(w, ss.docs); err != nil {
			return fmt.Errorf("after load: %w", err)
		}
		cpus, walls, err := ss.restart(n)
		restarts, restartWalls = append(restarts, cpus...), append(restartWalls, walls...)
		return err
	}
	if w.writes > 0 {
		p = ss.measure("measured", 0, 0, warmWrites, w.writes)
		if err := reopen(w.restarts); err != nil {
			return nil, err
		}
	} else {
		// The query workloads alternate open-loop and back-to-back slices,
		// with a share of the reopens after each, so that every figure
		// samples the whole run: on a shared host the speed wanders by tens
		// of percent within half a minute.
		slice := time.Duration(w.seconds) * time.Second / (2 * slices)
		for k := 0; k < slices; k++ {
			p.add(ss.measure(fmt.Sprintf("slice %d", k), slice, slice, 0, 0))
			n := w.restarts / slices
			if k < w.restarts%slices {
				n++
			}
			if err := reopen(n); err != nil {
				return nil, err
			}
		}
	}
	logf("restart CPU %.3f s, wall %.3f s (medians of %d)", medianOf(restarts), medianOf(restartWalls), len(restarts))

	served := len(p.closed)
	if w.writes > 0 {
		served += len(p.open) // the reads ran beside the writes, in the CPU time
	}
	logf("back-to-back  %.1f/s wall, p99 %.3fms", float64(len(p.closed))/p.wall.Seconds(), ms(percentile(p.closed, 0.99)))
	m := map[string]metric{
		"setup_s":        {medianOf(setups), "s"},
		"bytes_per_node": {heap / float64(catalogNodes(ss.docs)), "B"},
		"query_p50_ms":   {ms(percentile(p.open, 0.5)), "ms"},
		"cpu_us_per_op":  {us(p.cpu) / float64(served), "us"},
		"op_p50_ms":      {ms(percentile(p.closed, 0.5)), "ms"},
		"op_p90_ms":      {ms(percentile(p.closed, 0.9)), "ms"},
		"restart_s":      {medianOf(restarts), "s"},
		"ok_frac":        {float64(ss.total.ok) / float64(ss.total.sent), "frac"},
	}
	return &result{
		Correct:   ss.total.wrong == 0 && ss.total.errors == 0,
		Attempted: ss.total.sent,
		Failed:    ss.total.failed(),
		Metrics:   m,
	}, nil
}

// medianOf is the median of v, averaging the middle pair of an even count.
func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	if len(s) == 0 {
		return 0
	}
	quantile(s, 0.5) // sorts
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
