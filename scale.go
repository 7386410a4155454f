package configcloud

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/netsim"
	"repro/internal/pkt"
	"repro/internal/shell"
	"repro/internal/sim"
)

// PingMesh is the E16 workload: an LTL ping workload spread across every
// pod. Each pod carries intra-pod pairs (across two of its TORs) and
// cross-pod pairs into the next pod, so both the parallel bulk and the
// serializing spine traffic scale with the pod count.
type PingMesh struct {
	IntraPairsPerPod int
	CrossPairsPerPod int
	PingsPerPair     int
	PayloadSize      int
	MeanGap          sim.Time
	BackgroundUtil   float64
}

// DefaultPingMesh returns the workload shape used by ExpScale.
func DefaultPingMesh() PingMesh {
	return PingMesh{
		IntraPairsPerPod: 2,
		CrossPairsPerPod: 2,
		PingsPerPair:     200,
		PayloadSize:      128,
		MeanGap:          50 * sim.Microsecond,
		BackgroundUtil:   0.005,
	}
}

// pairStats accumulates one ping pair's completions; updated only on
// the sending host's shard.
type pairStats struct {
	count  uint64
	rttSum uint64
	rttMax uint64
}

func (PingMesh) shellConfig() shell.Config { return shell.Config{} }

func (PingMesh) label() (string, string) { return "scale", "" }

// place opens every pair's connection and starts its ping chain; the
// digest folds each pair's (count, RTT sum, RTT max) in pair order.
func (w PingMesh) place(c *ShardedCloud, topo netsim.Config, _ sim.Time) func(*ShardedResult, func(uint64)) {
	perTOR := topo.HostsPerTOR
	perPod := perTOR * topo.TORsPerPod

	// Pair construction order is fixed (pod-major, intra before cross),
	// so connection IDs, RNG streams, and the digest fold order are all
	// independent of the worker count.
	type pair struct{ a, b int }
	var pairs []pair
	for p := 0; p < topo.Pods; p++ {
		base := p * perPod
		for i := 0; i < w.IntraPairsPerPod; i++ {
			pairs = append(pairs, pair{base + i, base + perTOR + i})
		}
		next := (p + 1) % topo.Pods
		for i := 0; i < w.CrossPairsPerPod; i++ {
			pairs = append(pairs, pair{
				base + 2*perTOR + i,
				next*perPod + 2*perTOR + perTOR/2 + i,
			})
		}
	}

	stats := make([]pairStats, len(pairs))
	conn := uint16(1)
	for pi, pr := range pairs {
		a, b := c.Node(pr.a), c.Node(pr.b)
		myConn := conn
		conn++
		must(b.Shell.Engine.OpenRecv(myConn, netsim.HostIP(pr.a), nil))
		must(a.Shell.Engine.OpenSend(myConn, netsim.HostIP(pr.b), netsim.HostMAC(pr.b), myConn, 0, nil))

		// The pair's RNG and clock both live on the sender's shard: every
		// draw and every timestamp is taken by the shard that owns the
		// sending engine, never by a shared stream a different worker
		// interleaving could reorder.
		ps := c.SimForHost(pr.a)
		rng := ps.NewRand()
		st := &stats[pi]
		eng := a.Shell.Engine
		payload := make([]byte, w.PayloadSize)
		remaining := w.PingsPerPair
		var ping func()
		ping = func() {
			if remaining == 0 {
				return
			}
			remaining--
			t0 := ps.Now()
			must(eng.SendMessage(myConn, payload, func() {
				rtt := uint64(ps.Now() - t0)
				st.count++
				st.rttSum += rtt
				if rtt > st.rttMax {
					st.rttMax = rtt
				}
				gap := sim.Time(rng.ExpFloat64() * float64(w.MeanGap))
				ps.Schedule(gap, ping)
			}))
		}
		ps.Schedule(sim.Time(rng.Intn(int(w.MeanGap))), ping)
	}

	if w.BackgroundUtil > 0 {
		c.DC.StartBackgroundLoad(w.BackgroundUtil, pkt.ClassBestEffort, 1100)
	}

	return func(res *ShardedResult, fold func(uint64)) {
		for _, st := range stats {
			res.Pings += st.count
			fold(st.count)
			fold(st.rttSum)
			fold(st.rttMax)
		}
	}
}

// scalePoint sizes one E16/E16b point for the given pod count.
func scalePoint(pods int, scale Scale) ShardedConfig {
	cfg := ShardedConfig{Seed: 16, Pods: pods, Duration: 25 * sim.Millisecond}
	w := DefaultPingMesh()
	if scale == Quick {
		cfg.HostsPerTOR = 8
		cfg.TORsPerPod = 4
		cfg.Duration = 4 * sim.Millisecond
		w.PingsPerPair = 40
		w.MeanGap = 20 * sim.Microsecond
		w.BackgroundUtil = 0.01
	}
	cfg.Workload = w
	return cfg
}

// scaleWorkers resolves the parallel worker count for ExpScale: the
// -shards flag when set, else one worker per core — but never fewer
// than two, so the parallel rows exercise the concurrent path (and the
// digest comparison stays meaningful) even on a single-core machine.
func scaleWorkers() int {
	if n := Shards(); n > 0 {
		return n
	}
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	return w
}

// ExpScale is experiment E16: sweep the datacenter from one pod toward
// the paper's 250,560 hosts, running every point twice — sequentially
// (one worker) and on all cores — and report the wall-clock speedup of
// the conservative-parallel kernel alongside proof (digest equality)
// that parallelism changed nothing but the wall clock.
func ExpScale(scale Scale) *Table {
	podCounts := []int{1, 4, 16, 64, 261}
	if scale == Quick {
		podCounts = []int{1, 2, 4}
	}
	workers := scaleWorkers()

	t := &Table{
		Title: fmt.Sprintf("E16 — Sharded kernel scaling (sequential vs %d workers; identical = bit-equal digests)", workers),
		Headers: []string{"pods", "hosts", "pings", "events", "crossings",
			"seq wall", "par wall", "speedup", "identical"},
	}
	for _, pods := range podCounts {
		seq, par, identical := seqVsPar(scalePoint(pods, scale), workers)
		t.AddRow(pods, seq.Hosts, seq.Pings, seq.Events, seq.Crossings,
			seq.Elapsed.Round(time.Millisecond).String(),
			par.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", float64(seq.Elapsed)/float64(par.Elapsed)),
			identical)
	}
	return t
}

// ExpScaleCurve is the second E16 table: an events/sec-per-core scaling
// curve on one fixed datacenter, sweeping the worker count 1→8. Each
// shard runs to its own per-channel horizon, so the per-event
// coordination overhead — and with it events/sec on the same core
// budget — is what the curve exposes. Every row's digest must equal the
// one-worker row's: the worker count is a wall-clock-only knob.
func ExpScaleCurve(scale Scale) *Table {
	pods := 16
	if scale == Quick {
		pods = 2
	}

	t := &Table{
		Title: fmt.Sprintf("E16b — Events/sec-per-core scaling curve (%d pods; identical = digest equals 1 worker)", pods),
		Headers: []string{"workers", "events", "wall",
			"events/sec", "ev/s/core", "vs 1 worker", "identical"},
	}
	// Unmeasured warm-up run: the first point on a cold machine gets a
	// turbo/cold-cache bonus of tens of percent, which would silently
	// flatter the one-worker baseline every row is compared against.
	cfg := scalePoint(pods, scale)
	cfg.Workers = 1
	RunSharded(cfg)

	var refDigest uint64
	var baseline float64
	for _, workers := range []int{1, 2, 4, 8} {
		cfg.Workers = workers
		r := RunSharded(cfg)
		evs := float64(r.Events) / r.Elapsed.Seconds()
		if baseline == 0 {
			baseline, refDigest = evs, r.Digest
		}
		t.AddRow(workers, r.Events,
			r.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", evs),
			fmt.Sprintf("%.0f", evs/float64(workers)),
			fmt.Sprintf("%.2fx", evs/baseline),
			r.Digest == refDigest)
	}
	return t
}
