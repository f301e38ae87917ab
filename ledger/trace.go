package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	mmdb "repro"
	"repro/internal/sqlparser"
)

// The traced run measures each layer by timing the benchmark's own calls
// into that layer's public functions: sqlparser.Parse, Query.Explain and
// Query.Analyze (whose operator tree the engine returns),
// Txn.LockTableShared, Table.CreateIndex, and, during set-up,
// Table.Insert, Database.Checkpoint, Close and Open + Recover; plus
// Database.Stats. It adds no spans inside the engine.

// traceSink accumulates what the traced operations saw. Clients share
// it, so every field is guarded by mu. A sink with off set records
// nothing and runs each query the untraced way on the same path: Parse
// of its text and Run of the builder query (see query).
type traceSink struct {
	off   bool
	plain *traceSink // the sink of the untraced rounds of a traced run

	mu       sync.Mutex
	parses   []float64 // µs per sqlparser.Parse
	explains []float64 // µs per Query.Explain
	fixed    []float64 // µs per Analyze outside the operators
	queries  int

	wall        time.Duration            // Σ Analyze wall times
	opWall      map[string]time.Duration // Σ top-level operator walls by kind
	selIn       int64                    // rows into the selections that filtered
	selOut      int64                    // rows out of them
	heapPushes  int64
	aggProbes   int64
	aggIn       int64
	maxSkew     float64
	mispredicts int64
	steals      int64
	schedWait   time.Duration
	grantPeak   int64
}

func newTraceSink() *traceSink {
	return &traceSink{opWall: make(map[string]time.Duration), plain: &traceSink{off: true}}
}

// parse times sqlparser.Parse of one statement.
func (ts *traceSink) parse(text string) error {
	t0 := time.Now()
	_, err := sqlparser.Parse(text)
	d := time.Since(t0)
	if err != nil || ts.off {
		return err
	}
	ts.mu.Lock()
	ts.parses = append(ts.parses, us(d))
	ts.mu.Unlock()
	return nil
}

// query runs one traced query: Parse of its text (when it has one),
// Explain and then Analyze of the builder query, recording each. With
// the sink off it runs Parse and then Run of the builder query, so the
// difference between the two is the cost of tracing.
func (ts *traceSink) query(text string, build func() *mmdb.Query) (*mmdb.Result, error) {
	if text != "" {
		if err := ts.parse(text); err != nil {
			return nil, err
		}
	}
	if ts.off {
		return build().Run()
	}
	t0 := time.Now()
	if _, err := build().Explain(); err != nil {
		return nil, err
	}
	explain := time.Since(t0)
	t0 = time.Now()
	res, tr, err := build().Analyze()
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	ts.record(explain, wall, tr)
	return res, nil
}

func (ts *traceSink) record(explain, wall time.Duration, tr *mmdb.QueryTrace) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.queries++
	ts.explains = append(ts.explains, us(explain))
	ts.wall += wall
	var ops time.Duration
	for _, n := range tr.Root.Children {
		ops += n.Wall
		ts.opWall[n.Op] += n.Wall
		switch n.Op {
		case "select":
			if n.RowsOut < n.RowsIn { // a selection that filtered
				ts.selIn += int64(n.RowsIn)
				ts.selOut += int64(n.RowsOut)
			}
		case "group":
			ts.aggProbes += n.Ops.AggProbes
			ts.aggIn += int64(n.RowsIn)
		case "order":
			ts.heapPushes += n.Ops.HeapPushes
		}
		ts.maxSkew = math.Max(ts.maxSkew, n.PartitionSkew)
		if n.GrantBytes > ts.grantPeak {
			ts.grantPeak = n.GrantBytes
		}
	}
	ts.fixed = append(ts.fixed, us(wall-ops))
	for _, d := range tr.Decisions {
		if d.Mispredicted() {
			ts.mispredicts++
		}
	}
	ts.steals += tr.SchedSteals
	ts.schedWait += tr.SchedWait
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracedRun drives the clients for d with every second round traced and
// the others run on the same path untraced, compares the two kinds of
// round to give the tracing overhead, then probes point reads, table
// locks and index builds. It returns the loop and the per-layer metrics.
func tracedRun(w workload, cs []*client, d time.Duration, st setupStats, heap int64) (loopResult, []metric, error) {
	db := w.db()
	ts := newTraceSink()
	s0 := db.Stats()
	loop := drive(cs, d, ts)
	s1 := db.Stats()

	r := &report{}
	add := r.add
	add("sqlparser.parse_us", "us", median(ts.parses))
	add("plan.explain_us", "us", median(ts.explains))
	add("plan.mispredicts_per_query", "count", per(float64(ts.mispredicts), ts.queries))
	add("mmdb.fixed_us", "us", median(ts.fixed))

	allocs, selectUS, err := pointProbe(w)
	if err != nil {
		return loopResult{}, nil, err
	}
	add("mmdb.allocs_per_point_read", "count", allocs)
	add("index.point_select_us", "us", selectUS)
	lockUS, err := lockProbe(w)
	if err != nil {
		return loopResult{}, nil, err
	}
	add("txn.lock_table_us", "us", lockUS)

	ops := int(loop.completed)
	add("lock.waits_per_op", "count", per(float64(s1.LockWaits-s0.LockWaits), ops))
	add("storage.insert_us", "us", per(us(st.insertTime), st.inserts))
	add("storage.bytes_per_user_byte", "ratio", float64(heap)/float64(w.payloadBytes()))
	buildMS, err := indexProbe(w)
	if err != nil {
		return loopResult{}, nil, err
	}
	add("index.build_ms", "ms", buildMS)

	wall := math.Max(1, float64(ts.wall))
	for _, op := range []string{"select", "join", "group", "order", "project", "distinct"} {
		add("exec."+op+"_pct", "%", 100*float64(ts.opWall[op])/wall)
	}
	examined := 1.0
	if ts.selOut > 0 {
		examined = float64(ts.selIn) / float64(ts.selOut)
	}
	add("exec.rows_examined_per_row", "ratio", examined)
	add("exec.heap_pushes_per_query", "count", per(float64(ts.heapPushes), ts.queries))
	add("agg.probes_per_row", "ratio", per(float64(ts.aggProbes), int(ts.aggIn)))
	add("radix.max_skew", "ratio", ts.maxSkew)
	add("sched.steals_per_query", "count", per(float64(ts.steals), ts.queries))
	add("sched.wait_pct", "%", 100*float64(ts.schedWait)/wall)

	var forced, reversals, repartitions int64
	if s0.Mem != nil && s1.Mem != nil {
		forced = s1.Mem.Forced - s0.Mem.Forced
		reversals = s1.Mem.Reversals - s0.Mem.Reversals
		repartitions = s1.Mem.Repartitions - s0.Mem.Repartitions
	}
	add("mem.grant_peak_kib", "KiB", float64(ts.grantPeak)/1024)
	add("mem.forced_per_op", "count", per(float64(forced), ops))
	add("mem.reversals_per_op", "count", per(float64(reversals), ops))
	add("mem.repartitions_per_op", "count", per(float64(repartitions), ops))

	add("recovery.log_words_per_write", "ratio", per(float64(s1.LogWords-s0.LogWords), int(s1.TxnCommits-s0.TxnCommits)))
	add("recovery.checkpoint_mb_per_s", "MB/s", rate(float64(st.diskBytes)/1e6, st.checkpoint))
	add("recovery.restart_krows_per_s", "krows/s", rate(float64(st.restartRows)/1e3, st.restart))

	add("trace.overhead_pct", "%", 100*(loop.tracedCost-1))
	return loop, r.metrics, nil
}

func per(v float64, n int) float64 { return v / math.Max(1, float64(n)) }

func rate(v float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return v / d.Seconds()
}

const probes = 200

// pointProbe measures builder primary-key lookups on the main table: the
// heap allocations of one Run, and the select operator's wall time in
// Analyze.
func pointProbe(w workload) (allocs, selectUS float64, err error) {
	db := w.db()
	name, rows := w.mainTable()
	rng := newRand(0, 6)
	lookup := func() *mmdb.Query {
		return db.Query(name).Where("id", mmdb.Eq, mmdb.Int(rng.Int63n(int64(rows))))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < probes; i++ {
		res, err := lookup().Run()
		if err != nil {
			return 0, 0, err
		}
		if res.Len() != 1 {
			return 0, 0, fmt.Errorf("point probe on %s found %d rows", name, res.Len())
		}
	}
	runtime.ReadMemStats(&m1)
	walls := make([]float64, 0, probes)
	for i := 0; i < probes; i++ {
		_, tr, err := lookup().Analyze()
		if err != nil {
			return 0, 0, err
		}
		for _, n := range tr.Root.Children {
			if n.Op == "select" {
				walls = append(walls, us(n.Wall))
			}
		}
	}
	return float64(m1.Mallocs-m0.Mallocs) / probes, median(walls), nil
}

// lockProbe times Begin + LockTableShared + Abort on the main table.
func lockProbe(w workload) (float64, error) {
	db := w.db()
	name, _ := w.mainTable()
	t, ok := db.Table(name)
	if !ok {
		return 0, fmt.Errorf("no table %s", name)
	}
	times := make([]float64, 0, probes)
	for i := 0; i < probes; i++ {
		t0 := time.Now()
		tx := db.Begin()
		err := tx.LockTableShared(t)
		tx.Abort()
		if err != nil {
			return 0, err
		}
		times = append(times, us(time.Since(t0)))
	}
	return median(times), nil
}

// indexProbe times Table.CreateIndex of a T-tree over the main table's
// id column, the same build every workload's set-up does for its
// secondary index, on the one table every workload has.
func indexProbe(w workload) (float64, error) {
	name, _ := w.mainTable()
	t, ok := w.db().Table(name)
	if !ok {
		return 0, fmt.Errorf("no table %s", name)
	}
	t0 := time.Now()
	if _, err := t.CreateIndex(name+"_id_probe", "id", mmdb.TTree); err != nil {
		return 0, err
	}
	return ms(time.Since(t0)), nil
}
