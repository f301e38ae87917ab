package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	mmdb "repro"
	"repro/internal/storage"
)

// Input sizes at scale 1. The planner's crossovers they are set against
// are 128Ki rows for radix joins and radix aggregation and 64Ki rows for
// the radix sort (plan.DefaultRadixMinBuildRows, DefaultAggMinRows and
// DefaultSortMinRows).
const (
	oltpRows     = 100_000
	salesRows    = 300_000
	joinRows     = 160_000
	dimRows      = 1_000
	zipfS        = 1.2
	budgetBytes  = 128 << 10
	deviceTick   = 10 * time.Millisecond
	sqlLoadRows  = 1_000 // rows per table loaded through SQL INSERT text
	sqlLoadBatch = 100   // rows per INSERT statement
)

// query is one read-only query class: its SQL text, the builder query
// the text denotes, and the reference answer.
type query struct {
	class string
	sql   string
	build func() *mmdb.Query
	want  ref
}

// step runs the query as SQL text through Database.Exec and reads every
// row; traced, it runs sqlparser.Parse of the text and Explain and
// Analyze of the builder query instead (see traceSink.query).
func (q query) step(db *mmdb.Database) step {
	var buf []int64
	return step{class: q.class, run: func(ts *traceSink) (time.Duration, error) {
		t0 := time.Now()
		var res *mmdb.Result
		if ts == nil {
			er, err := db.Exec(q.sql)
			if err != nil {
				return time.Since(t0), err
			}
			res = er.Result
		} else {
			var err error
			if res, err = ts.query(q.sql, q.build); err != nil {
				return time.Since(t0), err
			}
		}
		buf = readRows(res, buf[:0])
		took := time.Since(t0)
		return took, q.want.check(buf)
	}}
}

// loadTable declares a table through SQL text and fills it with n rows:
// the first ones through multi-row INSERT statements, the rest through
// Table.Insert, whose time st records.
func loadTable(db *mmdb.Database, ddl, name string, n int, row func(i int) []mmdb.Value, st *setupStats) (*mmdb.Table, error) {
	if _, err := db.Exec(ddl); err != nil {
		return nil, err
	}
	t, ok := db.Table(name)
	if !ok {
		return nil, fmt.Errorf("table %s missing after CREATE TABLE", name)
	}
	viaSQL := min(n, sqlLoadRows)
	for i := 0; i < viaSQL; i += sqlLoadBatch {
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s VALUES ", name)
		for j := i; j < min(i+sqlLoadBatch, viaSQL); j++ {
			if j > i {
				b.WriteString(", ")
			}
			b.WriteByte('(')
			for c, v := range row(j) {
				if c > 0 {
					b.WriteString(", ")
				}
				if v.Type() == mmdb.TypeString {
					fmt.Fprintf(&b, "'%s'", v.Str())
				} else {
					fmt.Fprintf(&b, "%d", v.Int())
				}
			}
			b.WriteByte(')')
		}
		if _, err := db.Exec(b.String()); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	for i := viaSQL; i < n; i++ {
		if _, err := t.Insert(row(i)...); err != nil {
			return nil, err
		}
	}
	st.insertTime += time.Since(t0)
	st.inserts += n - viaSQL
	return t, nil
}

func ints(vs ...int64) []mmdb.Value {
	out := make([]mmdb.Value, len(vs))
	for i, v := range vs {
		out[i] = mmdb.Int(v)
	}
	return out
}

func uniform(rng *rand.Rand, n int, domain int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(domain)
	}
	return out
}

func perm(rng *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i, p := range rng.Perm(n) {
		out[i] = int64(p)
	}
	return out
}

// ---------------------------------------------------------------------
// Sales: the fact table of the analytic and budgeted workloads.

// sales holds the generated columns of sales(id, u, r, g1, g2, score,
// amt); row i has id i.
type sales struct {
	n                         int
	u, r, g1, g2, score, amt  []int64
	uDomain, rDomain, g2Range int64
}

func genSales(cfg config) *sales {
	n := scaled(cfg, salesRows, 3_000)
	rng := newRand(cfg.seed, 1)
	s := &sales{n: n, uDomain: int64(n / 3), rDomain: int64(n) * 10 / 3, g2Range: int64(n / 3)}
	s.u = uniform(rng, n, s.uDomain)
	s.r = uniform(rng, n, s.rDomain)
	s.g1 = uniform(rng, n, 1_000)
	s.g2 = uniform(rng, n, s.g2Range)
	s.score = perm(rng, n)
	s.amt = uniform(rng, n, 1_000)
	return s
}

func (s *sales) load(db *mmdb.Database, st *setupStats) error {
	t, err := loadTable(db,
		"CREATE TABLE sales (id INT, u INT, r INT, g1 INT, g2 INT, score INT, amt INT, PRIMARY KEY id USING mlh)",
		"sales", s.n, func(i int) []mmdb.Value {
			return ints(int64(i), s.u[i], s.r[i], s.g1[i], s.g2[i], s.score[i], s.amt[i])
		}, st)
	if err != nil {
		return err
	}
	_, err = t.CreateIndex("sales_r", "r", mmdb.TTree)
	return err
}

func (s *sales) bytes() int64 { return int64(s.n) * 7 * 8 }

// selection is the 1% predicate lo <= col < lo+width over sales,
// returning (id, col2), with the range in the middle of col's domain. A
// T-tree range scan's cost depends on where its range starts (see
// README.md, "Known faults"), so the position is the same on every seed.
func (s *sales) selection(db *mmdb.Database, class, col string, vals []int64, domain int64, col2 string, vals2 []int64) query {
	width := domain / 100
	lo := domain/2 - width/2
	want := multiset{width: 2}
	for i := 0; i < s.n; i++ {
		if vals[i] >= lo && vals[i] < lo+width {
			want.add(int64(i), vals2[i])
		}
	}
	return query{
		class: class,
		sql:   fmt.Sprintf("SELECT id, %s FROM sales WHERE %s >= %d AND %s < %d", col2, col, lo, col, lo+width),
		build: func() *mmdb.Query {
			return db.Query("sales").Where(col, mmdb.Ge, mmdb.Int(lo)).Where(col, mmdb.Lt, mmdb.Int(lo+width)).Select("id", col2)
		},
		want: want,
	}
}

// topK is ORDER BY score DESC LIMIT 10; score is a permutation, so the
// answer is exact.
func (s *sales) topK(db *mmdb.Database) query {
	const k = 10
	idOf := make([]int64, s.n)
	for i, sc := range s.score {
		idOf[sc] = int64(i)
	}
	var want ordered
	for j := 0; j < k && j < s.n; j++ {
		sc := int64(s.n - 1 - j)
		want.rows = append(want.rows, idOf[sc], sc)
	}
	return query{
		class: "topk",
		sql:   fmt.Sprintf("SELECT id, score FROM sales ORDER BY score DESC LIMIT %d", k),
		build: func() *mmdb.Query {
			return db.Query("sales").Select("id", "score").OrderBy("score", true).Limit(k)
		},
		want: want,
	}
}

// groupBy is SELECT key, COUNT(*), SUM(val) FROM table GROUP BY key,
// with keys and vals the generated columns.
func groupBy(db *mmdb.Database, class, table, key, val string, keys, vals []int64) query {
	want := newGroups(2)
	for i, k := range keys {
		a := want.want[k]
		if a == nil {
			a = make([]int64, 2)
			want.want[k] = a
		}
		a[0]++
		a[1] += vals[i]
	}
	return query{
		class: class,
		sql:   fmt.Sprintf("SELECT %s, COUNT(*), SUM(%s) FROM %s GROUP BY %s", key, val, table, key),
		build: func() *mmdb.Query {
			return db.Query(table).GroupBy(key).Agg(mmdb.AggCount, "*").Agg(mmdb.AggSum, val)
		},
		want: want,
	}
}

// distinct is SELECT DISTINCT col FROM table.
func distinct(db *mmdb.Database, table, col string, vals []int64) query {
	seen := make(map[int64]bool)
	want := multiset{width: 1}
	for _, v := range vals {
		if !seen[v] {
			seen[v] = true
			want.add(v)
		}
	}
	return query{
		class: "distinct",
		sql:   fmt.Sprintf("SELECT DISTINCT %s FROM %s", col, table),
		build: func() *mmdb.Query { return db.Query(table).Select(col).Distinct() },
		want:  want,
	}
}

// ---------------------------------------------------------------------
// Join inputs: the join and budgeted workloads.

// joinData holds jp(id, k) with k a permutation of [0, n), jb(id, k)
// with k uniform over [0, n), jz(id, k) with k Zipf-distributed over
// [0, n), and the star sf(id, a, b, c, v) with dimensions d1, d2, d3(id,
// w) of dims rows each. The joins pair every jb and jz row with exactly
// one jp row.
type joinData struct {
	n, dims        int
	pk, uni, zipf  []int64
	fa, fb, fc, fv []int64
	d1w, d2w, d3w  []int64
	posOfKey       []int64 // jp id holding each key
}

// starCut is the star's predicate v < starCut over v uniform in [0, 100).
const starCut = 10

func genJoin(cfg config) *joinData {
	n := scaled(cfg, joinRows, 2_000)
	rng := newRand(cfg.seed, 2)
	j := &joinData{n: n, dims: scaled(cfg, dimRows, 50)}
	j.pk = perm(rng, n)
	j.posOfKey = make([]int64, n)
	for i, k := range j.pk {
		j.posOfKey[k] = int64(i)
	}
	j.uni = uniform(rng, n, int64(n))
	z := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	j.zipf = make([]int64, n)
	for i := range j.zipf {
		j.zipf[i] = int64(z.Uint64())
	}
	// d1 covers every key of a, d2 a tenth of b's keys, d3 half of c's:
	// the best order joins d2 first.
	d := int64(j.dims)
	j.fa = uniform(rng, n, d)
	j.fb = uniform(rng, n, 10*d)
	j.fc = uniform(rng, n, 2*d)
	j.fv = uniform(rng, n, 100)
	j.d1w = uniform(rng, j.dims, 1<<20)
	j.d2w = uniform(rng, j.dims, 1<<20)
	j.d3w = uniform(rng, j.dims, 1<<20)
	return j
}

func (j *joinData) loadPairs(db *mmdb.Database, st *setupStats) error {
	for _, t := range []struct {
		name string
		keys []int64
	}{{"jp", j.pk}, {"jb", j.uni}, {"jz", j.zipf}} {
		keys := t.keys
		if _, err := loadTable(db, fmt.Sprintf("CREATE TABLE %s (id INT, k INT, PRIMARY KEY id USING mlh)", t.name),
			t.name, j.n, func(i int) []mmdb.Value { return ints(int64(i), keys[i]) }, st); err != nil {
			return err
		}
	}
	return nil
}

func (j *joinData) loadStar(db *mmdb.Database, st *setupStats) error {
	for _, d := range []struct {
		name string
		w    []int64
	}{{"d1", j.d1w}, {"d2", j.d2w}, {"d3", j.d3w}} {
		w := d.w
		if _, err := loadTable(db, fmt.Sprintf("CREATE TABLE %s (id INT, w INT, PRIMARY KEY id USING ttree)", d.name),
			d.name, j.dims, func(i int) []mmdb.Value { return ints(int64(i), w[i]) }, st); err != nil {
			return err
		}
	}
	t, err := loadTable(db, "CREATE TABLE sf (id INT, a INT, b INT, c INT, v INT, PRIMARY KEY id USING mlh)",
		"sf", j.n, func(i int) []mmdb.Value { return ints(int64(i), j.fa[i], j.fb[i], j.fc[i], j.fv[i]) }, st)
	if err != nil {
		return err
	}
	_, err = t.CreateIndex("sf_v", "v", mmdb.TTree)
	return err
}

func (j *joinData) pairBytes() int64 { return int64(j.n) * 3 * 2 * 8 }
func (j *joinData) starBytes() int64 { return int64(j.n)*5*8 + int64(j.dims)*3*2*8 }

// equiJoin is jp ⋈ build on k, returning (jp.id, build.id).
func (j *joinData) equiJoin(db *mmdb.Database, class, build string, keys []int64) query {
	want := multiset{width: 2}
	for i, k := range keys {
		want.add(j.posOfKey[k], int64(i))
	}
	return query{
		class: class,
		sql:   fmt.Sprintf("SELECT jp.id, %s.id FROM jp JOIN %s ON jp.k = %s.k", build, build, build),
		build: func() *mmdb.Query {
			return db.Query("jp").Join(build, "k", "k").Select("jp.id", build+".id")
		},
		want: want,
	}
}

// star is the four-way star join with the selective predicate on sf.
func (j *joinData) star(db *mmdb.Database) query {
	want := multiset{width: 4}
	d := int64(j.dims)
	for i := 0; i < j.n; i++ {
		if j.fv[i] < starCut && j.fb[i] < d && j.fc[i] < d {
			want.add(int64(i), j.d1w[j.fa[i]], j.d2w[j.fb[i]], j.d3w[j.fc[i]])
		}
	}
	return query{
		class: "star4",
		sql: fmt.Sprintf("SELECT sf.id, d1.w, d2.w, d3.w FROM sf JOIN d1 ON sf.a = d1.id "+
			"JOIN d2 ON sf.b = d2.id JOIN d3 ON sf.c = d3.id WHERE v < %d", starCut),
		build: func() *mmdb.Query {
			return db.Query("sf").Join("d1", "a", "id").Join("d2", "sf.b", "id").Join("d3", "sf.c", "id").
				Where("v", mmdb.Lt, mmdb.Int(starCut)).Select("sf.id", "d1.w", "d2.w", "d3.w")
		},
		want: want,
	}
}

// ---------------------------------------------------------------------
// Read-only workloads: analytic, join, budgeted.

// readOnly is a single-client workload of read-only SQL queries over an
// in-memory database.
type readOnly struct {
	opts    mmdb.Options
	load    func(db *mmdb.Database, st *setupStats) error
	queries func(db *mmdb.Database) []query
	main    string
	rows    int
	payload int64

	d *mmdb.Database
}

func (w *readOnly) setup(st *setupStats) error {
	if w.d != nil {
		if err := w.d.Close(); err != nil {
			return err
		}
		w.d = nil
	}
	db, err := mmdb.Open(w.opts)
	if err != nil {
		return err
	}
	if err := w.load(db, st); err != nil {
		return err
	}
	w.d = db
	return nil
}

// clients computes the references (once per run: clients is called after
// the last set-up) and returns the one client that issues the queries.
func (w *readOnly) clients() []*client {
	c := &client{}
	for _, q := range w.queries(w.d) {
		c.steps = append(c.steps, q.step(w.d))
	}
	return []*client{c}
}

func (w *readOnly) mainTable() (string, int)        { return w.main, w.rows }
func (w *readOnly) db() *mmdb.Database              { return w.d }
func (w *readOnly) payloadBytes() int64             { return w.payload }
func (w *readOnly) finish(io.Writer) (int64, error) { return 0, w.d.Close() }

func newAnalytic(cfg config) workload {
	s := genSales(cfg)
	return &readOnly{
		load: s.load,
		queries: func(db *mmdb.Database) []query {
			return []query{
				s.selection(db, "scan", "u", s.u, s.uDomain, "amt", s.amt),
				s.selection(db, "range", "r", s.r, s.rDomain, "r", s.r),
				groupBy(db, "group_low", "sales", "g1", "amt", s.g1, s.amt),
				groupBy(db, "group_high", "sales", "g2", "amt", s.g2, s.amt),
				s.topK(db),
				distinct(db, "sales", "g2", s.g2),
			}
		},
		main: "sales", rows: s.n, payload: s.bytes(),
	}
}

func newJoin(cfg config) workload {
	j := genJoin(cfg)
	return &readOnly{
		load: func(db *mmdb.Database, st *setupStats) error {
			if err := j.loadPairs(db, st); err != nil {
				return err
			}
			return j.loadStar(db, st)
		},
		queries: func(db *mmdb.Database) []query {
			return []query{
				j.equiJoin(db, "join2", "jb", j.uni),
				j.equiJoin(db, "zipf_join", "jz", j.zipf),
				j.star(db),
			}
		},
		main: "sf", rows: j.n, payload: j.pairBytes() + j.starBytes(),
	}
}

func newBudgeted(cfg config) workload {
	j := genJoin(cfg)
	ids := make([]int64, j.n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return &readOnly{
		opts: mmdb.Options{MemoryBudget: budgetBytes},
		load: j.loadPairs,
		queries: func(db *mmdb.Database) []query {
			return []query{
				j.equiJoin(db, "join2", "jb", j.uni),
				j.equiJoin(db, "zipf_join", "jz", j.zipf),
				groupBy(db, "group_high", "jb", "k", "id", j.uni, ids),
				distinct(db, "jb", "k", j.uni),
			}
		},
		main: "jb", rows: j.n, payload: j.pairBytes(),
	}
}

// ---------------------------------------------------------------------
// OLTP: point reads and writes on a durable, recovered database.

const oltpDDL = "CREATE TABLE acct (id INT, k INT, bal INT, pad STRING, PRIMARY KEY id USING mlh)"

// oltp is acct(id, k, bal, pad) with a hash primary index on id and a
// T-tree secondary index on k. A row's bal is version<<32 | id, so any
// reader can tell a row's own balance from another row's. The row count
// is a whole number of partitions, so the loaded partitions are full and
// every insert of the timed loop opens or fills a partition the
// checkpoint never wrote.
type oltp struct {
	cfg config
	n   int
	k   []int64 // k of the loaded rows: a permutation of [0, n)
	hot []int64 // Zipf rank → row id, so hot rows spread over partitions

	dir string
	d   *mmdb.Database
	tbl *mmdb.Table

	// The writer's shadow copy: each written row's last acknowledged
	// value and how many acknowledged writes it took.
	shadow map[int64]shadowRow
	nextID int64
	ver    int64
}

type shadowRow struct{ bal, writes int64 }

func (w *oltp) acknowledge(id, bal int64) {
	w.shadow[id] = shadowRow{bal, w.shadow[id].writes + 1}
}

func newOLTP(cfg config) workload {
	const part = storage.DefaultSlotsPerPartition
	n := (scaled(cfg, oltpRows, 2_000) + part - 1) / part * part
	rng := newRand(cfg.seed, 3)
	return &oltp{cfg: cfg, n: n, k: perm(rng, n), hot: perm(rng, n)}
}

func (w *oltp) pad(id int64) string {
	return fmt.Sprintf("%016x", mix64(uint64(w.cfg.seed)^mix64(uint64(id))))
}

func (w *oltp) kOf(id int64) int64 {
	if id < int64(w.n) {
		return w.k[id]
	}
	return id
}

func (w *oltp) row(id, bal int64) []mmdb.Value {
	return []mmdb.Value{mmdb.Int(id), mmdb.Int(w.kOf(id)), mmdb.Int(bal), mmdb.Str(w.pad(id))}
}

// open opens the disk copy and declares the schema; the tables fill on
// Recover. On error the database is left in w.d for release.
func (w *oltp) open(device time.Duration) error {
	db, err := mmdb.Open(mmdb.Options{Dir: w.dir, DeviceInterval: device})
	if err != nil {
		return err
	}
	w.d = db
	if _, err := db.Exec(oltpDDL); err != nil {
		return err
	}
	w.tbl, _ = db.Table("acct")
	if _, err := w.tbl.CreateIndex("acct_k", "k", mmdb.TTree); err != nil {
		return err
	}
	return db.Recover(nil)
}

func (w *oltp) release() error {
	if w.d == nil {
		return nil
	}
	err := w.d.Close()
	w.d = nil
	if rmErr := os.RemoveAll(w.dir); err == nil {
		err = rmErr
	}
	return err
}

// setup loads the table into a fresh durable database, checkpoints it,
// closes it, and reopens and recovers it with the log device running.
func (w *oltp) setup(st *setupStats) error {
	if err := w.release(); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.cfg.tmp, "oltp-")
	if err != nil {
		return err
	}
	w.dir = dir
	db, err := mmdb.Open(mmdb.Options{Dir: dir})
	if err != nil {
		return err
	}
	w.d = db
	t, err := loadTable(db, oltpDDL, "acct", w.n, func(i int) []mmdb.Value { return w.row(int64(i), int64(i)) }, st)
	if err != nil {
		return err
	}
	if _, err := t.CreateIndex("acct_k", "k", mmdb.TTree); err != nil {
		return err
	}
	t0 := time.Now()
	if err := db.Checkpoint(); err != nil {
		return err
	}
	st.checkpoint = time.Since(t0)
	if st.diskBytes, err = dirBytes(dir); err != nil {
		return err
	}
	t0 = time.Now()
	if err := db.Close(); err != nil {
		return err
	}
	if err := w.open(deviceTick); err != nil {
		return err
	}
	st.restart = time.Since(t0)
	st.restartRows = w.tbl.Cardinality()
	if st.restartRows != w.n {
		return fmt.Errorf("recovered %d rows, want %d", st.restartRows, w.n)
	}
	w.shadow = make(map[int64]shadowRow)
	w.nextID = int64(w.n)
	w.ver = 0
	return nil
}

// dirBytes is the size of the files in dir, where the disk copy keeps
// one image per partition.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

func (w *oltp) mainTable() (string, int) { return "acct", w.n }
func (w *oltp) db() *mmdb.Database       { return w.d }
func (w *oltp) payloadBytes() int64 {
	return int64(w.n) * (3*8 + 16)
}

// clients are one reader and one writer.
func (w *oltp) clients() []*client {
	return []*client{w.reader(), w.writer()}
}

// rwSteps is the length of the reader's round and of the writer's, so
// the two finish their lockstep rounds at about the same time.
const rwSteps = 22

// reader does primary-key lookups on uniform keys, alternating SQL text
// and the builder, and checks each row against the generator.
func (w *oltp) reader() *client {
	db := w.d
	rng := newRand(w.cfg.seed, 4)
	var buf []int64
	lookup := func(viaSQL bool) step {
		return step{class: "point_read", run: func(ts *traceSink) (time.Duration, error) {
			id := rng.Int63n(int64(w.n))
			text := fmt.Sprintf("SELECT id, k, bal, pad FROM acct WHERE id = %d", id)
			build := func() *mmdb.Query {
				return db.Query("acct").Where("id", mmdb.Eq, mmdb.Int(id)).Select("id", "k", "bal", "pad")
			}
			t0 := time.Now()
			var res *mmdb.Result
			var err error
			switch {
			case ts != nil && viaSQL:
				res, err = ts.query(text, build)
			case ts != nil:
				res, err = ts.query("", build)
			case viaSQL:
				var er *mmdb.ExecResult
				if er, err = db.Exec(text); err == nil {
					res = er.Result
				}
			default:
				res, err = build().Run()
			}
			if err != nil {
				return time.Since(t0), err
			}
			buf = readRows(res, buf[:0])
			took := time.Since(t0)
			if len(buf) != 4 || buf[0] != id || buf[1] != w.kOf(id) || buf[2]&0xffffffff != id || buf[3] != strHash(w.pad(id)) {
				return took, wrong("row %d read as %v", id, buf)
			}
			return took, nil
		}}
	}
	c := &client{}
	for i := 0; i < rwSteps/2; i++ {
		c.steps = append(c.steps, lookup(true), lookup(false))
	}
	return c
}

// writer does point updates on Zipf-hot rows, alternating SQL UPDATE and
// a builder transaction, plus one insert of each kind per round, and
// records every acknowledged write in the shadow copy.
func (w *oltp) writer() *client {
	db, tbl := w.d, w.tbl
	rng := newRand(w.cfg.seed, 5)
	z := rand.NewZipf(rng, zipfS, 1, uint64(w.n-1))
	next := func() (id, bal int64) {
		id = w.hot[z.Uint64()]
		w.ver++
		return id, w.ver<<32 | id
	}
	sqlUpdate := step{class: "point_write", run: func(ts *traceSink) (time.Duration, error) {
		id, bal := next()
		text := fmt.Sprintf("UPDATE acct SET bal = %d WHERE id = %d", bal, id)
		t0 := time.Now()
		if ts != nil {
			if err := ts.parse(text); err != nil {
				return time.Since(t0), err
			}
		}
		er, err := db.Exec(text)
		took := time.Since(t0)
		if err != nil {
			return took, err
		}
		if er.RowsAffected != 1 {
			return took, wrong("UPDATE of row %d affected %d rows", id, er.RowsAffected)
		}
		w.acknowledge(id, bal)
		return took, nil
	}}
	txnUpdate := step{class: "point_write", run: func(ts *traceSink) (time.Duration, error) {
		id, bal := next()
		t0 := time.Now()
		tx := db.Begin()
		build := func() *mmdb.Query { return db.Query("acct").Where("id", mmdb.Eq, mmdb.Int(id)).In(tx) }
		var res *mmdb.Result
		var err error
		if ts != nil {
			res, err = ts.query("", build)
		} else {
			res, err = build().Run()
		}
		if err != nil {
			tx.Abort()
			return time.Since(t0), err
		}
		if res.Len() != 1 {
			tx.Abort()
			return time.Since(t0), wrong("lookup of row %d found %d rows", id, res.Len())
		}
		if err := tx.Update(tbl, res.Tuples(0)[0], "bal", mmdb.Int(bal)); err != nil {
			tx.Abort()
			return time.Since(t0), err
		}
		if _, err := tx.Commit(); err != nil {
			return time.Since(t0), err
		}
		took := time.Since(t0)
		w.acknowledge(id, bal)
		return took, nil
	}}
	sqlInsert := step{class: "point_write", run: func(ts *traceSink) (time.Duration, error) {
		id := w.nextID
		w.nextID++
		text := fmt.Sprintf("INSERT INTO acct VALUES (%d, %d, %d, '%s')", id, w.kOf(id), id, w.pad(id))
		t0 := time.Now()
		if ts != nil {
			if err := ts.parse(text); err != nil {
				return time.Since(t0), err
			}
		}
		er, err := db.Exec(text)
		took := time.Since(t0)
		if err != nil {
			return took, err
		}
		if er.RowsAffected != 1 {
			return took, wrong("INSERT of row %d affected %d rows", id, er.RowsAffected)
		}
		w.acknowledge(id, id)
		return took, nil
	}}
	txnInsert := step{class: "point_write", run: func(*traceSink) (time.Duration, error) {
		id := w.nextID
		w.nextID++
		t0 := time.Now()
		tx := db.Begin()
		if err := tx.Insert(tbl, w.row(id, id)...); err != nil {
			tx.Abort()
			return time.Since(t0), err
		}
		ins, err := tx.Commit()
		took := time.Since(t0)
		if err != nil {
			return took, err
		}
		if len(ins) != 1 {
			return took, wrong("insert of row %d created %d tuples", id, len(ins))
		}
		w.acknowledge(id, id)
		return took, nil
	}}
	c := &client{}
	for i := 0; i < rwSteps/2-1; i++ {
		c.steps = append(c.steps, sqlUpdate, txnUpdate)
	}
	c.steps = append(c.steps, sqlInsert, txnInsert)
	return c
}

// finish reads back every write the writer had acknowledged, then
// closes the database, reopens and recovers it from disk, and reads them
// back again. Every acknowledged write to a row that reads back wrong at
// either point is a lost write.
func (w *oltp) finish(out io.Writer) (int64, error) {
	live := w.wrongRows()
	if err := w.d.Close(); err != nil {
		return 0, err
	}
	w.d = nil
	if err := w.open(0); err != nil {
		return 0, err
	}
	return w.recheck(out, live)
}

// recheck reads the shadow copy back from the recovered database, reports
// to out and releases the database. It returns the acknowledged writes to
// the rows that read back wrong there or, before the restart, live.
func (w *oltp) recheck(out io.Writer, live map[int64]bool) (int64, error) {
	after := w.wrongRows()
	want := w.n
	var writes, lost int64
	for id, r := range w.shadow {
		if id >= int64(w.n) {
			want++
		}
		writes += r.writes
		if live[id] || after[id] {
			lost += r.writes
		}
	}
	fmt.Fprintf(out, "durability: of %d written rows %d read back wrong live and %d after close, reopen and Recover; %d of %d acknowledged writes lost; %d rows recovered, want %d\n",
		len(w.shadow), len(live), len(after), lost, writes, w.tbl.Cardinality(), want)
	return lost, w.release()
}

// wrongRows returns the rows of the shadow copy that do not read back
// their last acknowledged value.
func (w *oltp) wrongRows() map[int64]bool {
	bad := make(map[int64]bool)
	for id, r := range w.shadow {
		res, err := w.d.Query("acct").Where("id", mmdb.Eq, mmdb.Int(id)).Select("bal").Run()
		if err != nil || res.Len() != 1 || res.Row(0)[0].Int() != r.bal {
			bad[id] = true
		}
	}
	return bad
}
