package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	mmdb "repro"
)

// A workload generates its inputs and their reference answers from the
// seed when it is made, builds databases from them, and names the
// closed-loop clients that drive the current database.
type workload interface {
	// setup builds a fresh database from the generated inputs, replacing
	// the previous one. It is what setup_s times; st receives the costs
	// of its layers.
	setup(st *setupStats) error
	// clients returns the clients that drive the current database.
	clients() []*client
	// mainTable is the workload's largest table, with an integer primary
	// key id in [0, rows); the point and lock probes of the traced run
	// use it.
	mainTable() (name string, rows int)
	// db is the current database.
	db() *mmdb.Database
	// finish runs the checks that follow the loop, reporting to out, and
	// releases the database. It returns how many acknowledged operations
	// the checks found lost.
	finish(out io.Writer) (lost int64, err error)
	// payloadBytes is the size of the generated user data.
	payloadBytes() int64
}

type workloadDef struct {
	make    func(cfg config) workload
	clients int // concurrent clients when the CPUs allow
}

var workloads = map[string]workloadDef{
	"oltp":     {newOLTP, 2},
	"analytic": {newAnalytic, 1},
	"join":     {newJoin, 1},
	"budgeted": {newBudgeted, 1},
}

// clientCount is the number of client goroutines a workload runs: its
// own count, never more than the CPUs.
func clientCount(name string) int {
	n := workloads[name].clients
	if cpus := runtime.NumCPU(); n > cpus {
		n = cpus
	}
	return n
}

// setupStats are the per-layer costs of one set-up.
type setupStats struct {
	inserts     int
	insertTime  time.Duration // Table.Insert calls during the load
	checkpoint  time.Duration // Database.Checkpoint (durable workloads)
	diskBytes   int64         // size of the disk copy written by Checkpoint
	restart     time.Duration // Close, then Open + Recover (durable workloads)
	restartRows int
}

// errWrong marks an answer that does not match its reference.
var errWrong = errors.New("wrong answer")

func wrong(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// A client issues rounds of steps in a closed loop: each step waits for
// its reply before the next one is sent, as the callers of an embedded
// library do.
type client struct {
	steps []step
}

// A step is one operation. run executes it, traced when ts is non-nil,
// and returns the time the caller waited for the engine (including
// reading every result row) and the verdict of the answer check; errors
// wrapping errWrong are wrong answers, others are engine failures.
type step struct {
	class string
	run   func(ts *traceSink) (time.Duration, error)
}

// mergeClients folds clients into n, concatenating their rounds, so a
// machine with fewer CPUs than clients runs no more goroutines than CPUs.
func mergeClients(cs []*client, n int) []*client {
	if len(cs) <= n {
		return cs
	}
	out := make([]*client, n)
	for i, c := range cs {
		j := i % n
		if out[j] == nil {
			out[j] = &client{}
		}
		out[j].steps = append(out[j].steps, c.steps...)
	}
	return out
}

// loopResult is what the clients of one loop measured.
type loopResult struct {
	lat       map[string][]float64 // milliseconds per timed operation, by class
	cpu       map[string][]float64 // milliseconds of processor time per timed operation, by class (see opCPU)
	attempted int64
	completed int64
	failed    int64 // engine errors and wrong answers
	wrong     int64 // wrong answers alone
	// rate is the operations completed in the timed rounds over the time
	// those rounds took, from the start of the first to the end of the
	// last. It is not taken from a median round time: an oltp round holds
	// 22 operations, enough that a pause lands in about half of them, so
	// that median jumps between rounds with and without one.
	rate float64
	// cpuPerOp is the processor time the whole process spent in the timed
	// rounds, every thread counted, per operation completed in them, in
	// milliseconds.
	cpuPerOp float64
	// tracedCost is the median, over pairs of a traced round and the
	// untraced round after it, of the clients' summed traced round time
	// over their summed untraced one; 0 when no round was traced.
	tracedCost float64
	firstErr   error
}

// clientOut is what one client measured.
type clientOut struct {
	lat, cpu                 map[string][]float64
	attempted, failed, wrong int64
	rounds                   [2][]float64 // seconds of operation time per round: [0] untraced, [1] traced
	firstErr                 error
}

// round runs the client's steps once through ts (nil runs them as the
// untraced mode does), reading each step's processor time with cpuNow.
// Only timed rounds record latencies, processor times and round times.
func (o *clientOut) round(c *client, ts *traceSink, timed bool, cpuNow func() time.Duration) {
	var busy time.Duration
	for _, s := range c.steps {
		c0 := cpuNow()
		took, err := s.run(ts)
		used := cpuNow() - c0
		o.attempted++
		busy += took
		if err != nil {
			o.failed++
			if errors.Is(err, errWrong) {
				o.wrong++
			}
			if o.firstErr == nil {
				o.firstErr = fmt.Errorf("%s: %w", s.class, err)
			}
			continue
		}
		if timed {
			o.lat[s.class] = append(o.lat[s.class], float64(took)/float64(time.Millisecond))
			o.cpu[s.class] = append(o.cpu[s.class], float64(used)/float64(time.Millisecond))
		}
	}
	if timed {
		traced := 0
		if ts != nil && !ts.off {
			traced = 1
		}
		o.rounds[traced] = append(o.rounds[traced], busy.Seconds())
	}
}

// drive runs the clients in lockstep rounds: every client runs its round
// of steps, each step waiting for its reply before the next is sent, as
// the callers of an embedded library do, and the next round starts when
// every client has finished. So every run attempts whole rounds, and the
// same number of each client's, whatever its length. The first round is
// an untimed warm-up (the scheduler pool, a relation's first snapshot);
// its operations are attempted and checked like the others. Rounds then
// repeat until d has passed. With ts non-nil every second timed round
// is traced into ts and the others run through ts.plain, on the same
// path untraced, so both kinds share the machine's drifts, and a
// collection runs before every round.
//
// An operation's processor time is the whole process's, engine workers
// and collector included, while it runs when there is one client; when
// clients run side by side it is the time of the client's own thread,
// which the client holds for its round.
func drive(cs []*client, d time.Duration, ts *traceSink) loopResult {
	outs := make([]clientOut, len(cs))
	for i := range outs {
		outs[i].lat = make(map[string][]float64)
		outs[i].cpu = make(map[string][]float64)
	}
	cpuNow := processCPU
	if len(cs) > 1 {
		cpuNow = threadCPU
	}
	var start, deadline time.Time
	var cpu0 time.Duration
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		sink := ts
		if ts != nil && r%2 == 0 {
			sink = ts.plain
		}
		if ts != nil {
			// Collect between rounds, so each round pays for its own
			// garbage and not for the other kind's.
			runtime.GC()
		}
		var wg sync.WaitGroup
		for i, c := range cs {
			wg.Add(1)
			go func(o *clientOut, c *client) {
				defer wg.Done()
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				o.round(c, sink, r > 0, cpuNow)
			}(&outs[i], c)
		}
		wg.Wait()
		if r == 0 {
			cpu0 = processCPU()
			start = time.Now()
			deadline = start.Add(d)
		}
	}
	elapsed := time.Since(start).Seconds()
	cpu := processCPU() - cpu0
	res := loopResult{lat: make(map[string][]float64), cpu: make(map[string][]float64)}
	var timedDone int
	for _, o := range outs {
		for k, v := range o.lat {
			res.lat[k] = append(res.lat[k], v...)
			timedDone += len(v)
		}
		for k, v := range o.cpu {
			res.cpu[k] = append(res.cpu[k], v...)
		}
		res.attempted += o.attempted
		res.failed += o.failed
		res.wrong += o.wrong
		res.completed += o.attempted - o.failed
		if res.firstErr == nil {
			res.firstErr = o.firstErr
		}
	}
	var ratios []float64
	for r := 0; r < len(outs[0].rounds[0]) && r < len(outs[0].rounds[1]); r++ {
		var plain, traced float64
		for _, o := range outs {
			plain += o.rounds[0][r]
			traced += o.rounds[1][r]
		}
		ratios = append(ratios, traced/plain)
	}
	res.tracedCost = median(ratios)
	res.rate = float64(timedDone) / elapsed
	res.cpuPerOp = float64(cpu) / float64(time.Millisecond) / math.Max(1, float64(timedDone))
	return res
}

// processCPU is the processor time, user and system, that every thread
// of the process has used so far; the calling thread's share is exact,
// the other threads' lag by up to a scheduler tick. The kernel does not
// count the time a virtual CPU waits for its host (steal) as the
// process's, so on a shared host this moves less with the neighbours'
// load than wall time does (README.md, "Reference figures").
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the processor time the calling thread has used so far; the
// caller must hold its thread (runtime.LockOSThread) between two reads.
// It reads the thread's CPU-time clock, which is exact to the
// nanosecond; getrusage's per-thread figure lags by up to a scheduler
// tick, longer than an oltp operation.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e) // a valid clock and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}

// setupRuns is how many set-ups an untraced run makes; setup_s is the
// median of their processor times.
const setupRuns = 3

// runBench performs one run: set-ups, the loop (traced or not), the
// closing checks, and the metrics. Human-readable detail goes to out;
// the caller prints the result line.
func runBench(cfg config, out io.Writer) (*report, error) {
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	w := workloads[cfg.workload].make(cfg)

	setups := setupRuns
	if cfg.trace {
		setups = 1
	}
	base := liveHeap()
	var times, cpus []float64
	var st setupStats
	for i := 0; i < setups; i++ {
		st = setupStats{}
		t0, c0 := time.Now(), processCPU()
		if err := w.setup(&st); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		cpus = append(cpus, (processCPU() - c0).Seconds())
		times = append(times, time.Since(t0).Seconds())
	}
	heap := liveHeap() - base

	cs := mergeClients(w.clients(), clientCount(cfg.workload))
	d := time.Duration(cfg.seconds * float64(time.Second))
	rep := &report{}
	var res loopResult
	if cfg.trace {
		var err error
		if res, rep.metrics, err = tracedRun(w, cs, d, st, heap); err != nil {
			return nil, err
		}
	} else {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res = drive(cs, d, nil)
		runtime.ReadMemStats(&m1)
		rep.add("setup_s", "s", median(cpus))
		rep.add("cpu_ms_per_op", "ms", res.cpuPerOp)
		rep.add("cpu_p50_geomean_ms", "ms", geomeanOfMedians(res.cpu))
		rep.add("allocs_per_op", "count", float64(m1.Mallocs-m0.Mallocs)/math.Max(1, float64(res.completed)))
		rep.add("heap_mb", "MiB", float64(heap)/(1<<20))
		printClasses(out, res)
		fmt.Fprintf(out, "wall: ops_per_s=%.4f p50_geomean_ms=%.4f\n", res.rate, geomeanOfMedians(res.lat))
	}
	if res.firstErr != nil {
		fmt.Fprintln(out, "first failure:", res.firstErr)
	}
	// Writes that do not read back are failed operations, not wrong
	// answers: correct speaks of the operations that did not fail.
	lost, err := w.finish(out)
	if err != nil {
		return nil, fmt.Errorf("closing checks: %w", err)
	}
	rep.attempted = res.attempted
	rep.failed = res.failed + lost
	rep.lost = lost
	rep.correct = res.wrong == 0
	fmt.Fprintf(out, "setups: wall %v s, processor %v s\n", times, cpus)
	return rep, nil
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// printClasses writes each class's sample count, median latency, the
// highest percentile its samples support (the one with at least ten
// samples beyond it) and median processor time.
func printClasses(out io.Writer, res loopResult) {
	for _, c := range sortedKeys(res.lat) {
		v := res.lat[c]
		line := fmt.Sprintf("class %-12s n=%-6d p50=%.4fms", c, len(v), quantile(v, 0.5))
		for _, p := range []float64{0.999, 0.99, 0.9} {
			if float64(len(v))*(1-p) >= 10 {
				line += fmt.Sprintf(" p%g=%.4fms", p*100, quantile(v, p))
				break
			}
		}
		fmt.Fprintln(out, line+fmt.Sprintf(" cpu_p50=%.4fms", quantile(res.cpu[c], 0.5)))
	}
	fmt.Fprintf(out, "attempted=%d failed=%d wrong=%d\n", res.attempted, res.failed, res.wrong)
}

// geomeanOfMedians is the geometric mean, over the operation classes, of
// each class's median (of latency or of processor time): every class
// weighs the same in relative terms, however long it takes.
func geomeanOfMedians(lat map[string][]float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range lat {
		s += math.Log(quantile(v, 0.5))
	}
	return math.Exp(s / float64(len(lat)))
}

// quantile is the q-quantile of v by linear interpolation between the
// closest ranks; v is left unchanged.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// scaled is n times the configured scale, at least lo.
func scaled(cfg config, n, lo int) int {
	v := int(float64(n) * cfg.scale)
	if v < lo {
		return lo
	}
	return v
}

// newRand derives an independent generator for one input stream of the
// seed, so adding a stream never changes another.
func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)))))
}
