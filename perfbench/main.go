// Command perfbench is the repository's end-to-end benchmark. It builds
// one workload from the repository's public constructors, times it from
// outside, checks its outputs, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (untraced runs); with
// -trace 1 they are the per-layer set, taken from a CPU profile, obs
// telemetry and the harness's own timed calls. Lines before the JSON are
// a human-readable report: the workload digest (a label, not a gated
// metric) and every metric the run measured.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload fabric|netsvc|live --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Tiny shrinks the workload to a fraction of a second (the smoke test).
	Tiny bool
	// Procs is the parallelism cap: GOMAXPROCS, shard workers and HTTP
	// connections never exceed it.
	Procs int
}

// deadline is when the measured phase must stop starting new work.
func (c runConfig) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(c.Seconds * float64(time.Second)))
}

// report collects one run's results. Workloads set every metric they
// measure; checks record broken invariants.
type report struct {
	Workload  string
	Digest    uint64
	Attempted int64
	Failed    int64
	Metrics   map[string]metric
	Labels    []string
	Errors    []string
}

func newReport(workload string) *report {
	return &report{Workload: workload, Metrics: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) label(format string, args ...any) {
	r.Labels = append(r.Labels, fmt.Sprintf(format, args...))
}

// check records a broken invariant when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) *report{
	"fabric": runFabric,
	"netsvc": runNetsvc,
	"live":   runLive,
}

func main() {
	workload := flag.String("workload", "", "workload: fabric, netsvc or live")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload fabric|netsvc|live, -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Procs: procs()}
	runtime.GOMAXPROCS(cfg.Procs)

	rep := run(cfg)
	out, err := finish(rep, cfg.Trace)
	printReport(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		for _, e := range rep.Errors {
			fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", e)
		}
		os.Exit(1)
	}
}

// procs is the machine's CPU count, the cap on every kind of parallelism
// the benchmark uses.
func procs() int {
	n := runtime.NumCPU()
	if n < 1 {
		n = 1
	}
	return n
}

// finish selects the metrics the mode reports. A per-layer metric the
// workload did not set reads 0 (the layer did no work); a missing
// end-to-end metric is a harness bug.
func finish(rep *report, trace bool) (output, error) {
	names := endToEnd
	if trace {
		names = perLayer
	}
	out := output{
		Correct:   len(rep.Errors) == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]metric{},
	}
	var missing []string
	for _, m := range names {
		v, ok := rep.Metrics[m.Name]
		if !ok && trace {
			// A layer the workload bypasses did no work.
			v, ok = metric{Value: 0, Unit: m.Unit}, true
		}
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		if v.Unit != m.Unit {
			return out, fmt.Errorf("metric %s has unit %q, want %q", m.Name, v.Unit, m.Unit)
		}
		out.Metrics[m.Name] = v
	}
	if len(missing) > 0 {
		return out, fmt.Errorf("%s did not measure %s", rep.Workload, strings.Join(missing, ", "))
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("%s attempted no operations", rep.Workload)
	}
	return out, nil
}

// printReport writes the human-readable lines that precede the JSON.
func printReport(rep *report) {
	fmt.Printf("workload %s digest=%016x\n", rep.Workload, rep.Digest)
	for _, l := range rep.Labels {
		fmt.Printf("label %s\n", l)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("metric %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fail := 0.0
	if rep.Attempted > 0 {
		fail = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Printf("metric %-34s %16.6g ratio (failed %d of %d attempted)\n", "fail_frac", fail, rep.Failed, rep.Attempted)
}
