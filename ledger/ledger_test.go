package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	mmdb "repro"
)

// small is a run at 2% of the documented sizes, short enough for tests.
func small(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.3, trace: trace, scale: 0.02, tmp: t.TempDir()}
}

// spec is the part of BENCHMARK.json the tests compare the output with.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSmallRunsPassTheirChecks(t *testing.T) {
	s := readSpec(t)
	for _, wl := range s.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, trace), func(t *testing.T) {
				rep, err := runBench(small(t, wl.Name, trace), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				// Lost writes are the only failures a run may have: the
				// engine loses acknowledged oltp writes across a restart
				// (README.md, "Known faults").
				if !rep.correct || rep.failed != rep.lost || rep.attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d lost=%d", rep.correct, rep.attempted, rep.failed, rep.lost)
				}
				if wl.Name != "oltp" && rep.lost != 0 {
					t.Fatalf("%d lost writes in a read-only workload", rep.lost)
				}
				// Lockstep rounds: the reader's and the writer's are whole.
				if wl.Name == "oltp" && rep.attempted%(2*rwSteps) != 0 {
					t.Fatalf("attempted=%d is not a whole number of rounds of %d", rep.attempted, 2*rwSteps)
				}
				t.Logf("attempted=%d failed=%d lost=%d", rep.attempted, rep.failed, rep.lost)
				want := s.EndToEnd
				if trace {
					want = s.PerLayer
				}
				var got, names []string
				for _, m := range rep.metrics {
					got = append(got, m.name+" "+m.unit)
				}
				for _, m := range want {
					names = append(names, m.Name+" "+m.Unit)
				}
				sort.Strings(got)
				sort.Strings(names)
				if strings.Join(got, ",") != strings.Join(names, ",") {
					t.Fatalf("metrics\n got %v\nwant %v", got, names)
				}
				if !trace {
					for _, m := range rep.metrics {
						if !(m.value > 0) {
							t.Errorf("%s = %v, want > 0", m.name, m.value)
						}
					}
				}
			})
		}
	}
}

func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	cfg := small(t, "join", false)
	cfg.seed = 3
	code := emit(cfg, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 || res.Metrics["setup_s"].Unit != "s" {
		t.Fatalf("result line %s", lines[len(lines)-1])
	}
	if !strings.HasPrefix(lines[0], "fingerprint: ") || !strings.Contains(lines[0], `"seed":3`) {
		t.Fatalf("first line %q", lines[0])
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nosuch"},
		{"-workload", "oltp", "-trace", "2"},
		{"-workload", "oltp", "-seconds", "0"},
		{"-workload", "oltp", "-scale", "0.02"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}

func TestMultisetRejectsDroppedAndAlteredRows(t *testing.T) {
	rows := []int64{1, 10, 2, 20, 3, 30, 3, 30}
	want := summarize(2, rows)
	if err := want.check([]int64{3, 30, 2, 20, 3, 30, 1, 10}); err != nil {
		t.Fatalf("reordered rows rejected: %v", err)
	}
	for name, bad := range map[string][]int64{
		"dropped row":    {1, 10, 2, 20, 3, 30},
		"altered row":    {1, 10, 2, 21, 3, 30, 3, 30},
		"duplicate swap": {1, 10, 2, 20, 2, 20, 3, 30},
	} {
		if err := want.check(bad); !errors.Is(err, errWrong) {
			t.Errorf("%s: got %v, want a wrong-answer error", name, err)
		}
	}
}

func TestGroupsRejectWrongAggregate(t *testing.T) {
	g := newGroups(2)
	g.want[1] = []int64{2, 30}
	g.want[5] = []int64{1, 7}
	if err := g.check([]int64{5, 1, 7, 1, 2, 30}); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	for name, bad := range map[string][]int64{
		"wrong aggregate": {5, 1, 7, 1, 2, 31},
		"dropped group":   {1, 2, 30},
		"group twice":     {1, 2, 30, 1, 2, 30},
		"unknown group":   {1, 2, 30, 6, 1, 7},
	} {
		if err := g.check(bad); !errors.Is(err, errWrong) {
			t.Errorf("%s: got %v, want a wrong-answer error", name, err)
		}
	}
}

func TestOrderedRejectsSwappedRows(t *testing.T) {
	o := ordered{rows: []int64{9, 99, 8, 98}}
	if err := o.check([]int64{9, 99, 8, 98}); err != nil {
		t.Fatal(err)
	}
	if err := o.check([]int64{8, 98, 9, 99}); !errors.Is(err, errWrong) {
		t.Fatalf("swapped top-k rows: got %v", err)
	}
}

// TestLostWriteIsCounted undoes one acknowledged write behind the
// writer's back, then loses the whole disk copy across a restart, and
// expects the read-backs to count every acknowledged write to a row that
// reads back wrong.
func TestLostWriteIsCounted(t *testing.T) {
	cfg := small(t, "oltp", false)
	w := newOLTP(cfg).(*oltp)
	if err := w.setup(&setupStats{}); err != nil {
		t.Fatal(err)
	}
	for _, s := range w.writer().steps {
		if _, err := s.run(nil); err != nil {
			t.Fatal(err)
		}
	}
	if bad := w.wrongRows(); len(bad) != 0 {
		t.Fatalf("%d rows wrong before corruption", len(bad))
	}
	var id int64 = -1
	for k := range w.shadow {
		if k < int64(w.n) {
			id = k
			break
		}
	}
	if _, err := w.d.Exec(fmt.Sprintf("UPDATE acct SET bal = %d WHERE id = %d", id, id)); err != nil {
		t.Fatal(err)
	}
	live := w.wrongRows()
	if len(live) != 1 || !live[id] {
		t.Fatalf("wrong rows %v after undoing the write to row %d", live, id)
	}

	if err := w.d.Close(); err != nil {
		t.Fatal(err)
	}
	w.d = nil
	files, err := os.ReadDir(w.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if err := os.Remove(filepath.Join(w.dir, f.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.open(0); err != nil {
		t.Fatal(err)
	}
	var writes int64
	for _, r := range w.shadow {
		writes += r.writes
	}
	if lost, err := w.recheck(io.Discard, live); err != nil || lost != writes {
		t.Fatalf("recheck = %d, %v after losing the disk copy; want all %d writes lost", lost, err, writes)
	}
}

func TestReaderRejectsForeignRow(t *testing.T) {
	cfg := small(t, "oltp", false)
	w := newOLTP(cfg).(*oltp)
	if err := w.setup(&setupStats{}); err != nil {
		t.Fatal(err)
	}
	defer w.release()
	// Give every row another row's balance: each lookup must notice.
	if _, err := w.d.Exec("UPDATE acct SET bal = 1 WHERE id >= 0"); err != nil {
		t.Fatal(err)
	}
	for _, s := range w.reader().steps {
		if _, err := s.run(nil); !errors.Is(err, errWrong) {
			t.Fatalf("got %v, want a wrong-answer error", err)
		}
	}
}

func TestQueryStepRejectsCorruptedReference(t *testing.T) {
	db, err := mmdb.Open(mmdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := genSales(config{seed: 2, scale: 0.01})
	if err := s.load(db, &setupStats{}); err != nil {
		t.Fatal(err)
	}
	q := groupBy(db, "group_low", "sales", "g1", "amt", s.g1, s.amt)
	if _, err := q.step(db).run(nil); err != nil {
		t.Fatalf("correct reference rejected: %v", err)
	}
	for _, a := range q.want.(*groups).want {
		a[1]++ // a wrong SUM in the reference: the engine's answer no longer matches
		break
	}
	if _, err := q.step(db).run(nil); !errors.Is(err, errWrong) {
		t.Fatalf("got %v, want a wrong-answer error", err)
	}
}
