// Command ledger is mmdb's end-to-end benchmark. It builds one
// workload's database from a seed through the public API (mmdb.Open, SQL
// text through Database.Exec, the query builder through Database.Query),
// drives it with closed-loop clients for a fixed time, checks every
// answer against a reference computed apart from the engine, and prints
// its metrics as one JSON object on the last line of standard output:
//
//	go build -o ledger . && ./ledger -workload oltp -seed 1 -seconds 10 -trace 0
//
// With -trace 1 the same command reports per-layer numbers instead, by
// timing its own calls into each layer's public functions; see trace.go.
// README.md lists the workloads, their sizes and what each metric should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // input sizes relative to the documented ones; tests shrink them
	tmp      string  // parent of the durable workloads' directories
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{scale: 1}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed loop in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	fs.StringVar(&cfg.tmp, "tmp", ".bench_build/tmp", "directory for the durable workloads' disk copies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "ledger: bad arguments: workload %q must be one of %s; seconds must be positive; trace 0 or 1\n",
			cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	return emit(cfg, stdout, stderr)
}

// emit performs the run cfg describes and prints its fingerprint, its
// detail and, last, its result line.
func emit(cfg config, stdout, stderr io.Writer) int {
	fp := takeFingerprint(cfg)
	fmt.Fprintln(stdout, "fingerprint:", fp.String())
	rep, err := runBench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "ledger:", err)
		return 1
	}
	line, err := rep.json()
	if err != nil {
		fmt.Fprintln(stderr, "ledger:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// metric is one named measurement of a run.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is the outcome of one run: the operation counts and either the
// end-to-end or the per-layer metrics.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	lost      int64 // acknowledged writes that did not read back, counted in failed
	metrics   []metric
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// json renders the result line the benchmark ends with.
func (r *report) json() (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	return string(b), err
}

// fingerprint records the machine and runtime a report was taken on.
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Clients    int    `json:"clients"`
	// Parallel says whether the engine's worker count and the client
	// count fit the CPUs; a degree above NumCPU measures time slicing,
	// not parallel speed-up, and is marked not meaningful.
	Parallel string `json:"parallel"`
}

func takeFingerprint(cfg config) fingerprint {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	fp := fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOGC:       gogc,
		Seed:       cfg.seed,
		Workload:   cfg.workload,
		Clients:    clientCount(cfg.workload),
	}
	fp.Parallel = "meaningful"
	if fp.GOMAXPROCS > fp.NumCPU || fp.Clients > fp.NumCPU {
		fp.Parallel = fmt.Sprintf("not meaningful: degree above NumCPU=%d", fp.NumCPU)
	}
	return fp
}

func (f fingerprint) String() string {
	b, _ := json.Marshal(f) // plain struct of strings and ints: cannot fail
	return string(b)
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
