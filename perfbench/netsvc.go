package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/kvcache"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rpcnic"
	"repro/internal/shell"
	"repro/internal/sim"
	"repro/internal/workload"
)

// netsvcSize shapes the netsvc workload: the E18 KV cache and RPC NIC
// sharing one single-kernel fabric with no background noise. The KV
// keyspace is several times the stores' total capacity, so the stores
// run full and evict.
type netsvcSize struct {
	KVClients   int
	KVRate      float64 // requests/s per client (virtual)
	Keys        int
	Zipf        float64
	GetFraction float64
	Store       kvcache.StoreConfig
	Callers     int
	RPCRate     float64 // requests/s per caller (virtual)
	Span, Drain sim.Time
}

func netsvcSizeFor(tiny bool) netsvcSize {
	sz := netsvcSize{
		KVClients: 8, KVRate: 20000, Keys: 16384, Zipf: 1.1, GetFraction: 0.7,
		Store:   kvcache.StoreConfig{Sets: 128, Ways: 4, SlotBytes: 1 << 10},
		Callers: 6, RPCRate: 15000,
		Span: 200 * sim.Millisecond, Drain: 5 * sim.Millisecond,
	}
	if tiny {
		sz.Span = 5 * sim.Millisecond
	}
	return sz
}

// netsvcShards is the KV shard count (keyspace slices).
const netsvcShards = 4

// rpcCall is one harness-issued RPC awaiting its reply.
type rpcCall struct {
	method byte
	sentAt sim.Time
	expire *sim.Event
}

// netsvc is one built deployment and its harness-side bookkeeping. All
// fields are touched only from the simulation's goroutine.
type netsvc struct {
	s    *sim.Simulation
	ctx  *obs.Context
	kv   *kvcache.Service
	disp *rpcnic.Dispatcher
	gens []*workload.OpenLoop

	kvOffered, kvOK, kvTimeouts, kvBadValue uint64
	kvLat                                   []float64
	rpcOffered, rpcOK, rpcTimeouts, rpcBad  uint64
	rpcLat                                  []float64
	pending                                 map[uint64]*rpcCall
	digest                                  uint64
}

// fold mixes one completion into the harness digest.
func (n *netsvc) fold(vs ...uint64) {
	for _, v := range vs {
		n.digest = fnv(n.digest, v)
	}
}

// buildNetsvc deploys both services and starts their open-loop
// generators. A non-nil log times every Client.Get and Client.Put call.
func buildNetsvc(seed int64, sz netsvcSize, telemetry bool, log *spanLog) *netsvc {
	s := sim.New(seed)
	n := &netsvc{s: s, pending: map[uint64]*rpcCall{}, digest: fnvBasis}
	if telemetry {
		// Before any component is built: they cache the tracer.
		n.ctx = obs.Enable(s)
		n.ctx.Tracer.SetLimit(1 << 20)
	}
	dcCfg := netsim.DefaultConfig()
	shells := map[int]*shell.Shell{}
	dcCfg.Interposer = func(dc *netsim.Datacenter, hostID int) netsim.Interposer {
		sh := shell.New(dc.Sim, hostID, netsim.DefaultPortConfig(), shell.DefaultConfig())
		shells[hostID] = sh
		return sh
	}
	dc := netsim.NewDatacenter(s, dcCfg)

	kcfg := kvcache.DefaultConfig()
	kcfg.Seed = seed
	kcfg.Clients = sz.KVClients
	kcfg.Shards = netsvcShards
	kcfg.Keys = sz.Keys
	kcfg.Store = sz.Store
	n.kv = kvcache.NewServiceOn(s, dc, shells, 0, kcfg)

	rcfg := rpcnic.DefaultConfig()
	rcfg.Seed = seed
	rcfg.Callers = sz.Callers
	rcfg.Duration = sz.Span
	hostBase := n.kv.NextHostBase()
	n.disp = rpcnic.NewDispatcherOn(s, dc, shells, hostBase, rcfg)
	// NewDispatcherOn places the dispatcher on the first TOR-aligned host
	// after its callers.
	perTOR := dcCfg.HostsPerTOR
	dispHost := hostBase + (sz.Callers+perTOR-1)/perTOR*perTOR

	n.startKV(sz, kcfg, log)
	for i := 0; i < sz.Callers; i++ {
		n.startCaller(shells[hostBase+i], hostBase+i, dispHost, sz, rcfg)
	}
	return n
}

// startKV drives every KV client with a Zipf-skewed open-loop GET/PUT
// mix. A GET hit must return the value the key's PUTs write.
func (n *netsvc) startKV(sz netsvcSize, kcfg kvcache.Config, log *spanLog) {
	for _, cl := range n.kv.Clients() {
		cl := cl
		rng := n.s.NewRand()
		zipf := rand.NewZipf(rng, sz.Zipf, 1, uint64(sz.Keys-1))
		key := make([]byte, kcfg.KeyBytes)
		val := make([]byte, kcfg.ValBytes)
		want := make([]byte, kcfg.ValBytes)
		g := workload.NewOpenLoop(n.s, sz.KVRate, func() {
			idx := int(zipf.Uint64())
			kvcache.MakeKeyInto(key, idx)
			get := rng.Float64() < sz.GetFraction
			n.kvOffered++
			done := func(o kvcache.Outcome) {
				if o.TimedOut {
					n.kvTimeouts++
					n.fold(uint64(idx), 0)
					return
				}
				n.kvOK++
				n.kvLat = append(n.kvLat, float64(o.Latency))
				if get && o.Hit && !bytes.Equal(o.Val, kvcache.MakeValInto(want, idx)) {
					n.kvBadValue++
				}
				hit := uint64(0)
				if o.Hit {
					hit = 1
				}
				n.fold(uint64(idx), uint64(o.Latency), hit)
			}
			var w0 time.Time
			if log != nil {
				w0 = time.Now()
			}
			if get {
				cl.Get(key, done)
			} else {
				cl.Put(key, kvcache.MakeValInto(val, idx), done)
			}
			if log != nil {
				call := "Client.Put"
				if get {
					call = "Client.Get"
				}
				log.add("kvcache", call, w0, time.Since(w0))
			}
		})
		n.gens = append(n.gens, g)
		g.Start()
	}
}

// startCaller turns one of the dispatcher's caller hosts into a
// harness-driven RPC client: it sends serialized requests to the
// dispatcher node and matches the replies.
func (n *netsvc) startCaller(sh *shell.Shell, host, dispHost int, sz netsvcSize, rcfg rpcnic.Config) {
	rng := n.s.NewRand()
	args := make([]byte, rcfg.ArgBytes)
	for i := range args {
		args[i] = byte(i)
	}
	var scratch []byte
	var seq uint64
	must(sh.SetServiceHandler(func(from int, kind uint8, payload []byte) {
		if kind != rpcnic.KindReply {
			return
		}
		resp, err := rpcnic.DecodeResp(payload)
		if err != nil {
			n.rpcBad++
			return
		}
		c, ok := n.pending[resp.ID]
		if !ok {
			n.rpcBad++ // late, duplicated or crossed reply
			return
		}
		delete(n.pending, resp.ID)
		n.s.Cancel(c.expire)
		if resp.Method != c.method {
			n.rpcBad++
		}
		lat := n.s.Now() - c.sentAt
		n.rpcOK++
		n.rpcLat = append(n.rpcLat, float64(lat))
		n.fold(resp.ID, uint64(lat))
	}))
	g := workload.NewOpenLoop(n.s, sz.RPCRate, func() {
		method := byte(rpcnic.MethodEcho)
		switch u := rng.Float64(); {
		case u < 0.2:
			method = rpcnic.MethodRank
		case u < 0.5:
			method = rpcnic.MethodHash
		}
		seq++
		id := uint64(host)<<32 | seq
		c := &rpcCall{method: method, sentAt: n.s.Now()}
		c.expire = n.s.Schedule(rcfg.Timeout, func() {
			delete(n.pending, id)
			n.rpcTimeouts++
			n.fold(id, 0)
		})
		n.pending[id] = c
		n.rpcOffered++
		scratch = rpcnic.AppendReq(scratch[:0], rpcnic.Req{Method: method, ID: id, Args: args})
		must(sh.SendDatagram(dispHost, rpcnic.KindIngress, scratch))
	})
	n.gens = append(n.gens, g)
	g.Start()
}

// run generates load for the span, then drains in-flight requests.
func (n *netsvc) run(sz netsvcSize) {
	n.s.RunUntil(sz.Span)
	for _, g := range n.gens {
		g.Stop()
	}
	n.s.RunUntil(sz.Span + sz.Drain)
	n.kv.Stop()
	n.disp.Stop()
}

// netsvcRep is one repetition's measurements and results; the
// deployment itself is dropped so repetitions do not pile up on the heap.
type netsvcRep struct {
	rep
	digest uint64
	events uint64
	kv     kvcache.Result
	rpc    rpcnic.Result
	obs    obsSummary
	// Exact virtual p99 latencies (ns) of KV requests and RPCs.
	kvP99, rpcP99 float64
	attempts      uint64
	failures      uint64
}

func runNetsvcRep(r *report, cfg runConfig, sz netsvcSize, telemetry bool, log *spanLog) netsvcRep {
	var n *netsvc
	setup := timeSetup(func() { n = buildNetsvc(cfg.Seed, sz, telemetry, log) })
	nr := netsvcRep{rep: measure(func() { n.run(sz) })}
	nr.Setup = setup
	nr.kv, nr.rpc = n.kv.Result(), n.disp.Result()
	nr.events = n.s.Fired()
	nr.digest = fnv(fnv(n.digest, nr.kv.Digest), nr.rpc.RouteHash)
	nr.attempts = n.kvOffered + n.rpcOffered
	nr.failures = n.kvTimeouts + n.rpcTimeouts + n.kvBadValue + n.rpcBad
	if telemetry {
		nr.obs = summarizeObs([]*obs.Context{n.ctx})
	}

	// Conservation and the on-fabric witness.
	r.check(n.kvOffered == n.kvOK+n.kvTimeouts,
		"kv offered %d != completed %d + timeouts %d", n.kvOffered, n.kvOK, n.kvTimeouts)
	r.check(nr.kv.Offered == n.kvOffered, "kvcache counted %d requests, harness offered %d", nr.kv.Offered, n.kvOffered)
	r.check(n.rpcOffered == n.rpcOK+n.rpcTimeouts,
		"rpc offered %d != completed %d + timeouts %d", n.rpcOffered, n.rpcOK, n.rpcTimeouts)
	r.check(len(n.pending) == 0, "%d rpcs still pending after drain", len(n.pending))
	r.check(nr.rpc.Offered == n.rpcOffered, "dispatcher saw %d rpcs, harness offered %d", nr.rpc.Offered, n.rpcOffered)
	r.check(nr.kv.OnFabric, "kvcache not on-fabric: %d fabric replies, %d shard-host PCIe requests",
		nr.kv.FabricReplies, nr.kv.HostRoundTrips)
	r.check(n.kvBadValue == 0, "%d GET hits returned a wrong value", n.kvBadValue)
	r.check(n.rpcBad == 0, "%d bad, late or crossed rpc replies", n.rpcBad)
	nr.kvP99, nr.rpcP99 = quantile(n.kvLat, 0.99), quantile(n.rpcLat, 0.99)
	return nr
}

// runNetsvc repeats the deployment with one seed until the measured
// time is spent; every repetition must give the same digest. A traced
// run profiles and times KV calls in its first half and turns obs
// telemetry on in its second.
func runNetsvc(cfg runConfig) *report {
	r := newReport("netsvc")
	sz := netsvcSizeFor(cfg.Tiny)
	start := time.Now()
	end := cfg.deadline(start)

	var prof *profiler
	var log *spanLog
	plainEnd := end
	if cfg.Trace {
		var err error
		if prof, err = startProfile(); err != nil {
			r.check(false, "%v", err)
			return r
		}
		log = newSpanLog(1 << 22)
		plainEnd = start.Add(end.Sub(start) / 2)
	}
	reps := netsvcReps(r, cfg, sz, false, log, plainEnd, 3, 0)
	first := reps[0]
	base := make([]rep, len(reps))
	for i, nr := range reps {
		base[i] = nr.rep
		r.Attempted += int64(nr.attempts)
		r.Failed += int64(nr.failures)
	}
	setupS, runS, cpuS, heapMB, allocMB := repStats(base)
	r.label("wall s/steal s/run_s of each repetition: %s", repRuns(base))
	events := float64(first.events)

	r.Digest = first.digest
	r.label("kv clients=%d shards=%d keys=%d capacity=%d rpc callers=%d span=%s reps=%d",
		sz.KVClients, netsvcShards, sz.Keys, netsvcShards*sz.Store.Sets*sz.Store.Ways, sz.Callers, sz.Span, len(reps))
	r.set("setup_s", setupS, "s")
	r.set("run_s", runS, "s")
	r.set("cpu_s", cpuS, "s")
	r.set("peak_heap_mb", heapMB, "MB")
	r.set("sim.events", events, "count")
	r.set("sim.ns_per_event", runS*1e9/events, "ns")
	r.set("sim.events_per_s", events/runS, "1/s")
	r.set("alloc_mb", allocMB, "MB")
	r.set("shell.pcie_reqs", float64(first.kv.HostRoundTrips), "count")
	r.set("kv.hit_rate", first.kv.HitRate, "ratio")
	if first.kv.Slots > 0 {
		r.set("kv.occupancy", float64(first.kv.Used)/float64(first.kv.Slots), "ratio")
	}
	r.set("kv.evictions", float64(first.kv.Evictions), "count")
	r.set("kv.virt_p99_us", first.kvP99/1e3, "us")
	r.set("rpc.virt_p99_us", first.rpcP99/1e3, "us")
	if !cfg.Trace {
		return r
	}

	shares, err := prof.stop()
	r.check(err == nil, "fold profile: %v", err)
	setCPUShares(r, shares)
	r.set("kvcache.issue_ns", median(append(log.durations("Client.Get"), log.durations("Client.Put")...)), "ns")
	if err := log.write(fmt.Sprintf("netsvc-seed%d", cfg.Seed)); err != nil {
		r.check(false, "write spans: %v", err)
	}

	traced := netsvcReps(r, cfg, sz, true, nil, end, 1, first.digest)
	tracedBase := make([]rep, len(traced))
	for i, nr := range traced {
		tracedBase[i] = nr.rep
		r.Attempted += int64(nr.attempts)
		r.Failed += int64(nr.failures)
	}
	_, tracedRun, _, _, _ := repStats(tracedBase)
	t := traced[len(traced)-1]
	r.set("obs.overhead_frac", tracedRun/runS-1, "ratio")
	r.set("net.tx_frames", float64(t.obs.Counters["net.tx_frames"]), "count")
	r.set("net.queue_delay_p99_us", quantile(t.obs.QWait, 0.99)/1e3, "us")
	r.set("er.flits_switched", float64(t.obs.Counters["er.flits_switched"]), "count")
	r.set("er.stall_conflict", float64(t.obs.Counters["er.stall_conflict"]), "count")
	setVirtShares(r, t.obs.VirtSelf)
	return r
}

// netsvcReps repeats runNetsvcRep until the deadline (at least atLeast
// times), checking every digest against want (the first repetition's
// when want is zero).
func netsvcReps(r *report, cfg runConfig, sz netsvcSize, telemetry bool, log *spanLog,
	deadline time.Time, atLeast int, want uint64) []netsvcRep {
	return repeatUntil(deadline, atLeast, func() netsvcRep {
		nr := runNetsvcRep(r, cfg, sz, telemetry, log)
		if want == 0 {
			want = nr.digest
		}
		r.check(nr.digest == want, "seed %d gave digest %016x, want %016x (telemetry=%v)",
			cfg.Seed, nr.digest, want, telemetry)
		return nr
	})
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
