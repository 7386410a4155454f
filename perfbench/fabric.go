package main

import (
	"fmt"
	"time"

	configcloud "repro"
	"repro/internal/netsim"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// fabricSize shapes the fabric workload: the E16 LTL ping mesh on the
// pod-sharded kernel, each pod carrying intra-pod and cross-pod pairs
// whose pings continue for the whole virtual span over background noise.
type fabricSize struct {
	Pods, Intra, Cross int
	Span               sim.Time
	Gap                sim.Time
	Payload            int
	Noise              float64
}

func fabricSizeFor(tiny bool) fabricSize {
	if tiny {
		return fabricSize{Pods: 2, Intra: 1, Cross: 1, Span: 2 * sim.Millisecond,
			Gap: 50 * sim.Microsecond, Payload: 128, Noise: 0.005}
	}
	return fabricSize{Pods: 16, Intra: 2, Cross: 2, Span: 25 * sim.Millisecond,
		Gap: 50 * sim.Microsecond, Payload: 128, Noise: 0.005}
}

// pingPair is one sender/receiver pair; every field is written only by
// the goroutine advancing the sender's shard.
type pingPair struct {
	count, rttSum, rttMax uint64
	sent, failed          uint64
	rtts                  []float64 // kept only in traced runs
}

// fabric is one built ping mesh.
type fabric struct {
	c     *configcloud.ShardedCloud
	pairs []*pingPair
	hosts int
}

// buildFabric constructs the sharded cloud and schedules every pair's
// first ping. A non-nil log times each SendMessage call; keepRTT keeps
// every RTT sample.
func buildFabric(seed int64, sz fabricSize, workers int, telemetry bool, log *spanLog) *fabric {
	topo := netsim.DefaultConfig()
	topo.Pods = sz.Pods
	c := configcloud.NewSharded(configcloud.Options{Seed: seed, Topology: topo, Telemetry: telemetry}, workers)
	if telemetry {
		for _, ctx := range c.Obs {
			ctx.Tracer.SetLimit(1 << 17)
		}
	}
	perTOR := topo.HostsPerTOR
	perPod := perTOR * topo.TORsPerPod
	f := &fabric{c: c, hosts: sz.Pods * perPod}

	conn := uint16(1)
	open := func(a, b int) {
		pp := &pingPair{}
		f.pairs = append(f.pairs, pp)
		id := conn
		conn++
		na, nb := c.Node(a), c.Node(b)
		if err := nb.Shell.Engine.OpenRecv(id, netsim.HostIP(a), nil); err != nil {
			panic(fmt.Sprintf("fabric: open recv %d: %v", b, err))
		}
		if err := na.Shell.Engine.OpenSend(id, netsim.HostIP(b), netsim.HostMAC(b), id, 0,
			func() { pp.failed++ }); err != nil {
			panic(fmt.Sprintf("fabric: open send %d: %v", a, err))
		}
		// The pair's RNG and clock live on the sender's shard, so every
		// draw is taken in the same order at any worker count.
		s := c.SimForHost(a)
		rng := s.NewRand()
		eng := na.Shell.Engine
		payload := make([]byte, sz.Payload)
		var ping func()
		ping = func() {
			t0 := s.Now()
			done := func() {
				rtt := uint64(s.Now() - t0)
				pp.count++
				pp.rttSum += rtt
				if rtt > pp.rttMax {
					pp.rttMax = rtt
				}
				if log != nil {
					pp.rtts = append(pp.rtts, float64(rtt))
				}
				s.Schedule(sim.Time(rng.ExpFloat64()*float64(sz.Gap)), ping)
			}
			pp.sent++
			var err error
			if log != nil {
				w0 := time.Now()
				err = eng.SendMessage(id, payload, done)
				log.add("ltl", "SendMessage", w0, time.Since(w0))
			} else {
				err = eng.SendMessage(id, payload, done)
			}
			if err != nil {
				pp.failed++
			}
		}
		s.Schedule(sim.Time(rng.Intn(int(sz.Gap))), ping)
	}
	// Pair order is fixed (pod-major, intra before cross) so connection
	// ids, RNG streams and the digest fold order never depend on workers.
	for p := 0; p < sz.Pods; p++ {
		base := p * perPod
		for i := 0; i < sz.Intra; i++ {
			open(base+i, base+perTOR+i)
		}
		next := (p + 1) % sz.Pods
		for i := 0; i < sz.Cross; i++ {
			open(base+2*perTOR+i, next*perPod+2*perTOR+perTOR/2+i)
		}
	}
	if sz.Noise > 0 {
		c.DC.StartBackgroundLoad(sz.Noise, pkt.ClassBestEffort, 1100)
	}
	return f
}

// digest folds every pair's (count, RTT sum, RTT max), then the event
// and crossing totals: equal digests mean the runs behaved identically.
func (f *fabric) digest() uint64 {
	h := uint64(fnvBasis)
	for _, p := range f.pairs {
		h = fnv(h, p.count)
		h = fnv(h, p.rttSum)
		h = fnv(h, p.rttMax)
	}
	h = fnv(h, f.c.Fired())
	return fnv(h, f.c.Group.Crossings)
}

func (f *fabric) totals() (sent, done, failed uint64) {
	for _, p := range f.pairs {
		sent += p.sent
		done += p.count
		failed += p.failed
	}
	return
}

// fabricRep is one repetition's measurements; the cloud itself is
// dropped so repetitions do not pile up on the heap.
type fabricRep struct {
	rep
	digest             uint64
	sent, done, failed uint64
	events, crossings  uint64
	workers, shards    int
	hosts, pairs       int
	rtts               []float64
	obs                obsSummary
}

// runFabricRep builds the mesh, runs one virtual span and summarizes it.
func runFabricRep(cfg runConfig, sz fabricSize, workers int, telemetry bool, log *spanLog) fabricRep {
	var f *fabric
	setup := timeSetup(func() { f = buildFabric(cfg.Seed, sz, workers, telemetry, log) })
	fr := fabricRep{rep: measure(func() { f.c.Run(sz.Span) })}
	fr.Setup = setup
	fr.digest = f.digest()
	fr.sent, fr.done, fr.failed = f.totals()
	fr.events, fr.crossings = f.c.Fired(), f.c.Group.Crossings
	fr.workers, fr.shards = f.c.Group.Workers(), f.c.Group.N()
	fr.hosts, fr.pairs = f.hosts, len(f.pairs)
	for _, p := range f.pairs {
		fr.rtts = append(fr.rtts, p.rtts...)
	}
	if telemetry {
		fr.obs = summarizeObs(f.c.Obs)
	}
	return fr
}

// fabricReps repeats runFabricRep until the deadline (at least atLeast
// times) and checks that every repetition gives want's digest (the first
// repetition's when want is zero).
func fabricReps(r *report, cfg runConfig, sz fabricSize, workers int, telemetry bool,
	log *spanLog, deadline time.Time, atLeast int, want uint64) []fabricRep {
	return repeatUntil(deadline, atLeast, func() fabricRep {
		fr := runFabricRep(cfg, sz, workers, telemetry, log)
		if want == 0 {
			want = fr.digest
		}
		r.check(fr.digest == want, "seed %d gave digest %016x, want %016x (workers=%d telemetry=%v)",
			cfg.Seed, fr.digest, want, workers, telemetry)
		// A pair has at most one ping in flight when the span ends.
		r.check(fr.sent-fr.done <= uint64(fr.pairs), "%d pings sent, %d answered, %d pairs", fr.sent, fr.done, fr.pairs)
		return fr
	})
}

// runFabric repeats the ping mesh at nproc workers until the measured
// time is spent, then once at one worker: every repetition must give the
// same digest. A traced run profiles and times SendMessage in its first
// half and turns obs telemetry on in its second.
func runFabric(cfg runConfig) *report {
	r := newReport("fabric")
	sz := fabricSizeFor(cfg.Tiny)
	start := time.Now()
	end := cfg.deadline(start)
	workers := cfg.Procs

	var prof *profiler
	var log *spanLog
	plainEnd := end
	if cfg.Trace {
		var err error
		if prof, err = startProfile(); err != nil {
			r.check(false, "%v", err)
			return r
		}
		log = newSpanLog(1 << 21)
		plainEnd = start.Add(end.Sub(start) / 2)
	}
	reps := fabricReps(r, cfg, sz, workers, false, log, plainEnd, 3, 0)
	digest := reps[0].digest
	one := fabricReps(r, cfg, sz, 1, false, nil, time.Time{}, 1, digest)[0]

	base := make([]rep, len(reps))
	var attempted, failed uint64
	for i, fr := range append(reps, one) {
		if i < len(reps) {
			base[i] = fr.rep
		}
		attempted += fr.sent
		failed += fr.failed
	}
	setupS, runS, cpuS, heapMB, allocMB := repStats(base)
	r.label("wall s/steal s/run_s of each repetition: %s", repRuns(base))
	events := float64(reps[0].events)

	r.Digest = digest
	r.Attempted, r.Failed = int64(attempted), int64(failed)
	r.label("hosts=%d pods=%d pairs=%d span=%s workers=%d reps=%d",
		reps[0].hosts, sz.Pods, reps[0].pairs, sz.Span, reps[0].workers, len(reps))
	r.set("setup_s", setupS, "s")
	r.set("run_s", runS, "s")
	r.set("cpu_s", cpuS, "s")
	r.set("peak_heap_mb", heapMB, "MB")
	r.set("sim.events", events, "count")
	r.set("sim.ns_per_event", runS*1e9/events, "ns")
	r.set("sim.events_per_s", events/runS, "1/s")
	r.set("shard.speedup", one.runS()/runS, "ratio")
	r.set("shard.crossings", float64(reps[0].crossings), "count")
	r.set("alloc_mb", allocMB, "MB")
	r.set("ltl.rtt_p99_us", quantile(reps[0].rtts, 0.99)/1e3, "us")
	if !cfg.Trace {
		return r
	}

	shares, err := prof.stop()
	r.check(err == nil, "fold profile: %v", err)
	setCPUShares(r, shares)
	r.set("ltl.send_ns", median(log.durations("SendMessage")), "ns")
	if err := log.write(fmt.Sprintf("fabric-seed%d", cfg.Seed)); err != nil {
		r.check(false, "write spans: %v", err)
	}

	traced := fabricReps(r, cfg, sz, workers, true, nil, end, 1, digest)
	tracedBase := make([]rep, len(traced))
	for i, fr := range traced {
		tracedBase[i] = fr.rep
		r.Attempted += int64(fr.sent)
		r.Failed += int64(fr.failed)
	}
	_, tracedRun, _, _, _ := repStats(tracedBase)
	t := traced[len(traced)-1]
	r.set("obs.overhead_frac", tracedRun/runS-1, "ratio")
	r.set("net.tx_frames", float64(t.obs.Counters["net.tx_frames"]), "count")
	r.set("net.queue_delay_p99_us", quantile(t.obs.QWait, 0.99)/1e3, "us")
	if steps := float64(t.obs.Runtime["shard.steps"]); steps > 0 {
		r.set("shard.events_per_step", float64(t.events)/steps, "count")
	}
	// shard.park_ns sums every shard's parked wall time: the share is the
	// mean fraction of the run a shard spent parked.
	r.set("shard.park_share", float64(t.obs.Runtime["shard.park_ns"])/(float64(t.Run)*float64(t.shards)), "ratio")
	r.set("er.flits_switched", float64(t.obs.Counters["er.flits_switched"]), "count")
	r.set("er.stall_conflict", float64(t.obs.Counters["er.stall_conflict"]), "count")
	setVirtShares(r, t.obs.VirtSelf)
	return r
}
