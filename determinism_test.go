package configcloud

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/ranking"
	"repro/internal/svclb"
	"repro/internal/sweep"
)

// Every experiment is a pure function of its seed: rendering the same
// experiment twice must produce byte-identical tables. This is the
// regression harness that keeps EXPERIMENTS.md's recorded numbers honest.
func TestExperimentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several experiments twice")
	}
	// "tenancy" and "scale" print wall-clock columns and are covered by
	// their own digest-based tests (TestTenancyScaleDeterminism,
	// TestShardedScaleDeterminism) plus TestTenancyTableDeterminism for
	// the wall-free E19 tables.
	for _, id := range []string{"fig5", "power", "reliability", "crypto", "haas", "faults", "ext-bioinfo", "ext-compression"} {
		render := func() string {
			tabs, err := RunExperiment(id, Quick)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out := ""
			for _, tab := range tabs {
				out += tab.String()
			}
			return out
		}
		if a, b := render(), render(); a != b {
			t.Errorf("experiment %s is non-deterministic", id)
		}
	}
}

// Fault injection replays bit-identically: the same seed and fault
// profile must yield the same executed-event count and end time, the
// same fault tally, the same transport counters, and the same telemetry
// record (every registered metric, every LTL span and every fault
// arrival), run after run. This is what makes a fault scenario
// debuggable — a failure seen once can be re-run with its spans
// rendered.
func TestFaultProfileReplayDeterminism(t *testing.T) {
	for _, profile := range FaultProfileNames() {
		render := func() string {
			cloud := New(Options{Seed: 23, FaultProfile: profile, Telemetry: true})
			a, b := cloud.Node(0), cloud.Node(1)
			if err := b.Shell.Engine.OpenRecv(5, netsim.HostIP(0), nil); err != nil {
				t.Fatal(err)
			}
			if err := a.Shell.Engine.OpenSend(5, netsim.HostIP(1), netsim.HostMAC(1), 5, 0, nil); err != nil {
				t.Fatal(err)
			}
			completed := 0
			payload := make([]byte, 256)
			var send func(i int)
			send = func(i int) {
				if i >= 100 {
					return
				}
				// Sends may fail mid-run (the profile can kill a node);
				// the error itself must also replay identically.
				err := a.Shell.Engine.SendMessage(5, payload, func() { completed++ })
				cloud.Sim.Schedule(20*Microsecond, func() { send(i + 1) })
				_ = err
			}
			cloud.Sim.Schedule(0, func() { send(0) })
			cloud.Run(10 * Millisecond)

			eng := a.Shell.Engine
			rec := obs.Collect(obs.Of(cloud.Sim), "faults", profile)
			if len(rec.Metrics) == 0 || len(rec.Spans) == 0 {
				t.Fatalf("profile %q: telemetry is empty (%d metrics, %d spans)", profile, len(rec.Metrics), len(rec.Spans))
			}
			var enc strings.Builder
			if err := rec.Encode(&enc); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("completed=%d retx=%d timeouts=%d nacks=%d fired=%d now=%d\n%s%s",
				completed,
				eng.Stats.Retransmits.Value(),
				eng.Stats.Timeouts.Value(),
				eng.Stats.NacksRecv.Value(),
				cloud.Sim.Fired(),
				cloud.Sim.Now(),
				cloud.Faults.Stats.Table().String(),
				enc.String())
		}
		if a, b := render(), render(); a != b {
			t.Errorf("profile %q does not replay deterministically", profile)
		}
	}
}

// Service-level load balancing replays bit-identically: for every policy,
// the same seed yields the same routing-decision digest (RouteHash) and
// the same percentile outputs, hedging and cancellation included. The
// per-policy RouteHash is pinned, so a change that moves every run the
// same way still fails.
func TestSvcLBRoutingDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the balancer twice per policy")
	}
	cfg := svclb.DefaultConfig()
	cfg.Clients = 8
	cfg.Warmup = 20 * Millisecond
	cfg.Duration = 100 * Millisecond
	cfg.Drain = 50 * Millisecond
	cfg.HedgeDelay = 2 * cfg.ServiceTime // exercise hedge + cancel paths too
	pinned := map[string]uint64{
		svclb.PolicyRandom:     0x92a073dfe9338b05,
		svclb.PolicyRoundRobin: 0x0fe6eac0ccaef1c5,
		svclb.PolicyJSQ:        0xfbf3cbda15f524e4,
		svclb.PolicyP2C:        0x1390ca11a737b324,
	}
	for _, policy := range svclb.PolicyNames() {
		cfg.Policy = policy
		a, b := svclb.Run(cfg), svclb.Run(cfg)
		if a.RouteHash != b.RouteHash {
			t.Errorf("%s: routing decisions diverged: %x vs %x", policy, a.RouteHash, b.RouteHash)
		}
		if want, ok := pinned[policy]; !ok || a.RouteHash != want {
			t.Errorf("%s: RouteHash = %#x, want pinned %#x", policy, a.RouteHash, want)
		}
		if a != b {
			t.Errorf("%s: results diverged:\n%+v\n%+v", policy, a, b)
		}
	}
}

// The parallel sweep runner must be a pure performance change: fanning
// sweep points across workers has to produce byte-identical output to
// running them one by one on the calling goroutine. This guards the two
// rules sweep.Map relies on — per-point seeds drawn before the fan-out,
// and no shared mutable state (e.g. a common RNG) between points.
func TestParallelSweepMatchesSequential(t *testing.T) {
	if sweep.SequentialEnabled() {
		t.Fatal("sequential mode unexpectedly on at test entry")
	}
	render := func() string {
		// A ranking sweep (per-point Sampler + pre-drawn seeds) and an
		// svclb policy sweep (self-contained points) cover both
		// fan-out styles.
		rcfg := ranking.DefaultSweepConfig()
		rcfg.QueriesPer = 2000
		rcfg.PoolSize = 200
		rcfg.Points = 4
		curve := ranking.Sweep(rcfg, ranking.LocalFPGA)

		scfg := svclb.DefaultSweepConfig()
		scfg.Base.Warmup = 10 * Millisecond
		scfg.Base.Duration = 60 * Millisecond
		scfg.ClientCounts = []int{16, 32}
		sr := svclb.Sweep(scfg, svclb.PolicyP2C, true)

		return fmt.Sprintf("%+v\n%+v", curve, sr)
	}
	par := render()
	sweep.SetSequential(true)
	defer sweep.SetSequential(false)
	seq := render()
	if par != seq {
		t.Errorf("parallel sweep output diverges from sequential:\n--- parallel ---\n%s\n--- sequential ---\n%s", par, seq)
	}
}

// raiseGOMAXPROCS lifts scheduler parallelism for one test so that
// multi-worker shard-group runs spawn real goroutines (the group
// clamps its pool to GOMAXPROCS) and the race detector sees them.
func raiseGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	if prev >= n {
		return
	}
	runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// runTraced runs cfg with telemetry on and returns the result and its
// telemetry JSONL.
func runTraced(t *testing.T, cfg ShardedConfig, spanLimit int) (ShardedResult, string) {
	t.Helper()
	cfg.Telemetry = true
	cfg.SpanLimit = spanLimit
	res := RunSharded(cfg)
	var b strings.Builder
	if err := obs.EncodeAll(&b, []*obs.Record{res.Record}); err != nil {
		t.Fatal(err)
	}
	return res, b.String()
}

// shardedCase is one sharded scenario with its pinned single-worker
// digest and telemetry hash.
type shardedCase struct {
	name   string
	cfg    ShardedConfig
	digest uint64
	telSHA string // sha256 of the telemetry JSONL
}

// shardedPoint is the 3-pod, 6-hosts-per-TOR cloud every sharded
// determinism test runs on.
func shardedPoint(seed int64, d Time, w ShardedWorkload) ShardedConfig {
	return ShardedConfig{Seed: seed, Pods: 3, HostsPerTOR: 6, TORsPerPod: 4, Duration: d, Workload: w}
}

// checkShardedDeterminism holds the sharded kernel's headline guarantee
// (conservative-lookahead PDES) for each case: the worker count changes
// only the wall clock. The run must match its single-worker run bit for
// bit at 2/4/8 workers: same behaviour digest and byte-identical
// telemetry JSONL. The single-worker digest and telemetry hash are
// pinned, so a refactor of the harness or the kernel cannot move them
// unnoticed.
func checkShardedDeterminism(t *testing.T, cases []shardedCase) {
	t.Helper()
	raiseGOMAXPROCS(t, 8)
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.Workers = 1
		seq, seqTel := runTraced(t, cfg, 3000)
		// Guard against a vacuous pass before comparing anything.
		if seq.Pings+seq.Completed == 0 {
			t.Fatalf("%s: workload completed no pings or KV requests", tc.name)
		}
		if seq.Crossings == 0 {
			t.Fatalf("%s: workload never crossed a shard boundary", tc.name)
		}
		if len(seqTel) < 1000 {
			t.Fatalf("%s: telemetry suspiciously small (%d bytes)", tc.name, len(seqTel))
		}
		if _, ok := cfg.Workload.(TenantBoards); ok && (seq.ElephantSent == 0 || seq.Throttled == 0) {
			t.Fatalf("%s: elephant tenants idle (sent=%d throttled=%d): the point is not multi-tenant",
				tc.name, seq.ElephantSent, seq.Throttled)
		}
		if seq.Digest != tc.digest {
			t.Errorf("%s: sequential digest %016x, pinned %016x", tc.name, seq.Digest, tc.digest)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(seqTel))); sum != tc.telSHA {
			t.Errorf("%s: telemetry sha256 %s, pinned %s", tc.name, sum, tc.telSHA)
		}
		for _, workers := range []int{2, 4, 8} {
			cfg.Workers = workers
			par, parTel := runTraced(t, cfg, 3000)
			if par.Workers < 2 {
				t.Fatalf("%s: parallel run used %d workers", tc.name, par.Workers)
			}
			if seq.Digest != par.Digest {
				t.Errorf("%s workers=%d: digest diverged from sequential %016x vs %016x (events %d vs %d)",
					tc.name, workers, seq.Digest, par.Digest, seq.Events, par.Events)
			}
			if seqTel != parTel {
				t.Errorf("%s workers=%d: telemetry JSONL diverged (%d vs %d bytes)",
					tc.name, workers, len(seqTel), len(parTel))
			}
		}
	}
}

// The E16 ping mesh on the sharded kernel.
func TestShardedScaleDeterminism(t *testing.T) {
	ping := DefaultPingMesh()
	ping.PingsPerPair = 25
	ping.MeanGap = 20 * Microsecond
	ping.BackgroundUtil = 0.01
	checkShardedDeterminism(t, []shardedCase{
		{"scale", shardedPoint(16, 3*Millisecond, ping), 0x045264282139d999,
			"984929ce95877e6f7ac1778fc38e7b62ab78885379977f89f7ec36bd1c544d18"},
	})
}

// The E18c KV service: base, cuckoo directory and multi-get coalescing.
func TestNetsvcScaleDeterminism(t *testing.T) {
	kv := DefaultKVService()
	kv.RequestsPerClient = 50
	cuckoo, mget := kv, kv
	cuckoo.Cuckoo = true
	mget.MGetBatch = 4
	checkShardedDeterminism(t, []shardedCase{
		{"netsvc", shardedPoint(18, 6*Millisecond, kv), 0x427f71d71f34996c,
			"393c496a4cfa648bdcc4c72578cdd9acaad9546b8a4f6b9a0de4aa97883235e9"},
		// Equal to the base netsvc case: 256 keys never fill the 1024x4
		// store, so the cuckoo directory never kicks. The case stays so a
		// change to the cuckoo path that leaks into this workload shows.
		{"netsvc+cuckoo", shardedPoint(18, 6*Millisecond, cuckoo), 0x427f71d71f34996c,
			"393c496a4cfa648bdcc4c72578cdd9acaad9546b8a4f6b9a0de4aa97883235e9"},
		{"netsvc+mget4", shardedPoint(18, 6*Millisecond, mget), 0x8375c29437f42720,
			"6a21127b38054f31feb69df7c70d996783dc467dc24e9ee30b115be3d7ed6843"},
	})
}

// The E19c multi-tenant boards: a KV shard slot plus a shaped elephant
// slot, both loaded by partial reconfiguration.
func TestTenancyScaleDeterminism(t *testing.T) {
	tenants := DefaultTenantBoards()
	tenants.RequestsPerClient = 30
	checkShardedDeterminism(t, []shardedCase{
		{"tenancy", shardedPoint(19, 16*Millisecond, tenants), 0xe2d4ae3aa2cb7514,
			"6fae5706e630dd9df397e61bb3e58996ac7ce7df1dc1ae80d3c98ecba199977e"},
	})
}

// Property test over random small topologies — random pod
// counts, random L1<->L2 cable delays and per-pod spreads (the raw
// material for per-channel lookahead), random cross-traffic — run at
// 1/2/4/8 workers. Every run must produce the same digest and
// byte-identical telemetry JSONL as the sequential reference.
func TestShardRandomTopologyProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 4 sharded clouds per trial")
	}
	raiseGOMAXPROCS(t, 8)
	rng := rand.New(rand.NewSource(816))
	for trial := 0; trial < 3; trial++ {
		cfg := ShardedConfig{Seed: int64(1000 + trial), Pods: 1 + rng.Intn(4)}
		w := DefaultPingMesh()
		cfg.HostsPerTOR = 4 + rng.Intn(4)
		cfg.TORsPerPod = 4
		w.IntraPairsPerPod = 1 + rng.Intn(2)
		w.CrossPairsPerPod = 1 + rng.Intn(2)
		w.PingsPerPair = 10 + rng.Intn(15)
		w.MeanGap = 15 * Microsecond
		cfg.Duration = 2 * Millisecond
		w.BackgroundUtil = 0.005 * float64(rng.Intn(3))
		cfg.L1UplinkProp = Time(200 + rng.Intn(1500))
		cfg.L2CableSpread = Time(rng.Intn(1200))
		cfg.Workload = w
		label := fmt.Sprintf("trial=%d pods=%d hosts/tor=%d prop=%d spread=%d",
			trial, cfg.Pods, cfg.HostsPerTOR, cfg.L1UplinkProp, cfg.L2CableSpread)

		cfg.Workers = 1
		ref, refTel := runTraced(t, cfg, 2000)
		if ref.Pings == 0 || ref.Crossings == 0 {
			t.Fatalf("%s: vacuous workload (pings=%d crossings=%d)", label, ref.Pings, ref.Crossings)
		}
		for _, workers := range []int{2, 4, 8} {
			cfg.Workers = workers
			got, gotTel := runTraced(t, cfg, 2000)
			if got.Digest != ref.Digest {
				t.Errorf("%s: workers=%d digest %016x, sequential %016x",
					label, workers, got.Digest, ref.Digest)
			}
			if gotTel != refTel {
				t.Errorf("%s: workers=%d telemetry diverged (%d vs %d bytes)",
					label, workers, len(gotTel), len(refTel))
			}
		}
	}
}

// The wall-free E19 tables (pool packing, noisy neighbor) render
// byte-identically run over run; E19c carries wall-clock columns and is
// covered by TestTenancyScaleDeterminism instead.
func TestTenancyTableDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tenancy experiment twice")
	}
	render := func() string {
		return expTenancyPool(Quick).String() + expTenancyNeighbor(Quick).String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("tenancy tables are non-deterministic:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

func TestFig10Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 twice is heavy")
	}
	cfg := DefaultFig10Config()
	cfg.PingsPer = 60
	a := Fig10(cfg)
	b := Fig10(cfg)
	if a.Table().String() != b.Table().String() {
		t.Fatal("Fig10 is non-deterministic")
	}
}
