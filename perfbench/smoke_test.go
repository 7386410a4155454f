package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"repro/internal/obs"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the harness must
// agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// applies lists, per workload, the per-layer metrics the workload itself
// must measure (the rest may read 0 because the workload bypasses the
// layer).
var applies = map[string][]string{
	"fabric": {"sim.events", "sim.ns_per_event", "sim.events_per_s", "shard.speedup",
		"shard.park_share", "shard.events_per_step", "shard.crossings", "net.tx_frames",
		"net.queue_delay_p99_us", "alloc_mb", "ltl.send_ns", "ltl.rtt_p99_us",
		"gc.cpu_share", "obs.overhead_frac", "sim.cpu_share", "ltl.cpu_share"},
	"netsvc": {"sim.events", "sim.ns_per_event", "sim.events_per_s", "net.tx_frames",
		"alloc_mb", "kvcache.issue_ns", "er.flits_switched", "shell.pcie_reqs",
		"kv.hit_rate", "kv.occupancy", "kv.evictions", "kv.virt_p99_us", "rpc.virt_p99_us",
		"gc.cpu_share", "obs.overhead_frac", "kvcache.cpu_share", "kvcache.virt_share"},
	"live": {"sim.events", "alloc_mb", "kv.hit_rate", "kv.virt_p99_us",
		"frontend.lag_peak_ms", "frontend.wall_minus_virt_p50_ms", "http.healthz_p50_us",
		"svclb.shed", "loadgen.late_ms", "http_p50_ms", "http_p99_ms", "http_samples",
		"http_max_rps", "obs.overhead_frac", "http.cpu_share", "frontend.virt_share"},
}

// TestBenchmarkFileMatchesHarness pins BENCHMARK.json's workloads and
// metric names and units to what the harness reports.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, harness has %d", names, len(workloads))
	}
	same := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, harness %d", kind, len(file), len(code))
		}
		for i := range file {
			if i < len(code) && (file[i].Name != code[i].Name || file[i].Unit != code[i].Unit) {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i,
					file[i].Name, file[i].Unit, code[i].Name, code[i].Unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that each run passes its correctness checks and reports every
// metric of its mode with its unit, the ones its layers own measured.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{Seed: 3, Seconds: 0.5, Trace: trace, Tiny: true, Procs: procs()}
			rep := workloads[name](cfg)
			out, err := finish(rep, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !out.Correct {
				t.Fatalf("%s trace=%v: checks failed: %v", name, trace, rep.Errors)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.Name]
				if !ok || m.Unit == "" {
					t.Errorf("%s trace=%v: %s missing or without unit", name, trace, d.Name)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
			if trace {
				for _, n := range applies[name] {
					if _, ok := rep.Metrics[n]; !ok {
						t.Errorf("%s: %s not measured", name, n)
					}
				}
			}
		}
	}
}

// TestFoldSelfTime checks that a span's self time excludes the union of
// its children, overlapping or not.
func TestFoldSelfTime(t *testing.T) {
	spans := []obs.Span{
		{ID: 1, Name: "kvcache.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "net.hop", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "net.hop", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "ltl.tx", Start: 90, End: 120},
		{ID: 5, Name: "svclb.shed", Start: 5, End: 5},
	}
	got := map[string]float64{}
	foldSelfTime(spans, got)
	want := map[string]float64{"kvcache": 100 - 40 - 10, "net": 30 + 20, "ltl": 30}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s self = %v, want %v", k, got[k], v)
		}
	}
	if got["svclb"] != 0 {
		t.Errorf("instant event contributed %v", got["svclb"])
	}
}

// TestLayerOf pins the package-to-layer map of the profile fold.
func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim/shard.(*Group).step":         "shard",
		"repro/internal/sim.(*Simulation).RunUntil":      "sim",
		"repro/internal/kvcache.(*Client).Get":           "kvcache",
		"repro/internal/haas.(*ResourceManager).poll":    "other",
		"main.(*liveClient).post":                        "loadgen",
		"net/http.(*conn).serve":                         "http",
		"encoding/json.(*Decoder).Decode":                "http",
		"runtime.mapaccess1":                             "",
		"repro/internal/frontend.(*rtDriver).loop.func1": "frontend",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
