package configcloud

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kvcache"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/shell"
	"repro/internal/sim"
	"repro/internal/sim/shard"
)

// ShardedCloud is a Cloud partitioned by pod for conservative-parallel
// execution (internal/sim/shard): the L2 spine runs on shard 0 and each
// pod on its own shard, with the pod<->spine cable latency as the
// lookahead. The partition is fixed by the topology — the worker count
// chosen at construction only decides how many goroutines advance the
// shards, never the results: a run with W workers is bit-identical to
// the same cloud run with one worker.
//
// Construction (Node calls, connection setup, load generators) must
// finish before the first Run: lazy instantiation registers cross-shard
// mailboxes, which is a construction-time operation.
type ShardedCloud struct {
	Group *shard.Group
	DC    *netsim.Datacenter
	// Obs holds the per-shard observability contexts (shard order) when
	// Options.Telemetry was set; merge them after a run with
	// obs.CollectGroup. Nil otherwise.
	Obs []*obs.Context

	seed     int64
	shellCfg shell.Config
	shells   map[int]*shell.Shell
	faults   map[int]*faultinject.Injector // pod -> injector, created lazily
	profile  *faultinject.Profile
}

// NewSharded builds a pod-sharded cloud. workers caps the goroutines
// advancing the shards each conservative window; 0 means one per core
// (capped at the shard count), 1 means sequential execution of the same
// partition.
func NewSharded(opts Options, workers int) *ShardedCloud {
	topo := opts.Topology
	if topo.HostsPerTOR == 0 {
		topo = netsim.DefaultConfig()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := shard.NewGroup(opts.Seed, topo.Pods+1, workers)
	shCfg := opts.Shell
	if shCfg.BridgeLatency == 0 {
		shCfg = shell.DefaultConfig()
	}
	c := &ShardedCloud{
		Group:    g,
		seed:     opts.Seed,
		shellCfg: shCfg,
		shells:   make(map[int]*shell.Shell),
		faults:   make(map[int]*faultinject.Injector),
	}
	if opts.Telemetry {
		c.Obs = obs.EnableGroup(g.Sims())
	}
	profName := opts.FaultProfile
	if profName == "" {
		profName = defaultFaultProfile
	}
	if profName != "" {
		p, err := faultinject.ByName(profName)
		if err != nil {
			panic(fmt.Sprintf("configcloud: %v", err))
		}
		c.profile = &p
	}
	if !opts.NoFPGAs {
		topo.Interposer = func(dc *netsim.Datacenter, hostID int) netsim.Interposer {
			sh := shell.New(dc.SimForHost(hostID), hostID, netsim.DefaultPortConfig(), shCfg)
			c.shells[hostID] = sh
			return sh
		}
	}
	c.DC = netsim.NewShardedDatacenter(g, topo)
	return c
}

// Node instantiates (if needed) and returns server id with its shell.
// Under a fault profile, the node registers with its pod's injector —
// fault schedules and draws stay on the shard that owns the node, so
// they replay identically at any worker count.
func (c *ShardedCloud) Node(id int) Node {
	_, known := c.shells[id]
	h := c.DC.Host(id)
	sh := c.shells[id]
	if sh != nil && !known {
		pod, _, _ := c.DC.Locate(id)
		inj := c.faults[pod]
		if inj == nil {
			inj = faultinject.New(c.DC.SimForPod(pod))
			c.faults[pod] = inj
		}
		inj.AddNode(id, sh)
		if c.profile != nil {
			inj.Start(*c.profile)
		}
	}
	return Node{ID: id, Host: h, Shell: sh}
}

// Injector returns pod's fault injector, creating it if needed (e.g. to
// drive faults directly without a profile).
func (c *ShardedCloud) Injector(pod int) *faultinject.Injector {
	inj := c.faults[pod]
	if inj == nil {
		inj = faultinject.New(c.DC.SimForPod(pod))
		c.faults[pod] = inj
	}
	return inj
}

// Seed returns the group seed the cloud was built with.
func (c *ShardedCloud) Seed() int64 { return c.seed }

// Run advances virtual time by d across all shards.
func (c *ShardedCloud) Run(d Time) { c.Group.RunFor(d) }

// RunUntil advances all shards to the absolute virtual time t.
func (c *ShardedCloud) RunUntil(t Time) { c.Group.RunUntil(t) }

// Now returns the group clock (all shards agree between runs).
func (c *ShardedCloud) Now() Time { return c.Group.Now() }

// Fired sums executed events across all shards.
func (c *ShardedCloud) Fired() uint64 { return c.Group.Fired() }

// Tier reports the network tier connecting two hosts (0 = same TOR,
// 1 = same pod, 2 = cross-pod).
func (c *ShardedCloud) Tier(a, b int) int { return c.DC.Tier(a, b) }

// SimForHost returns the shard simulation host id lives on — for
// scheduling workload callbacks next to the components they drive.
func (c *ShardedCloud) SimForHost(id int) *sim.Simulation { return c.DC.SimForHost(id) }

// ShardedConfig drives one point of a sharded-kernel scenario (E16,
// E18c, E19c): a (possibly down-sized) datacenter on the pod-sharded
// conservative-parallel kernel, carrying one Workload.
type ShardedConfig struct {
	Seed int64
	// Topology dimensions. Zero HostsPerTOR/TORsPerPod mean the paper's
	// (24 hosts/TOR, 40 TORs/pod); Pods must be set.
	Pods        int
	HostsPerTOR int
	TORsPerPod  int
	// Cable-delay overrides (zero = the paper's defaults). L1UplinkProp
	// is the base pod<->spine propagation delay — the sharded kernel's
	// lookahead floor; L2CableSpread adds the per-pod deterministic
	// extra in [0, spread) that the kernel turns into per-channel slack.
	// The property tests randomize both.
	L1UplinkProp  sim.Time
	L2CableSpread sim.Time
	// Duration is the virtual run time.
	Duration sim.Time
	// Workers is the goroutine count advancing the shards (0 = one per
	// core). The digest is worker-count-independent by construction.
	Workers int
	// Telemetry collects a merged obs Record for the run; SpanLimit
	// caps each shard's span log (0 = tracer default).
	Telemetry bool
	SpanLimit int
	// Workload is what runs on the cloud: PingMesh, KVService or
	// TenantBoards.
	Workload ShardedWorkload
}

// ShardedWorkload is one scenario's plug-in to RunSharded: the shell
// its boards get, its placement and traffic, and its part of the digest.
type ShardedWorkload interface {
	// shellConfig is every board's shell (zero value: the default).
	shellConfig() shell.Config
	// place builds the workload on c before the clock starts; the run
	// ends at virtual time until. Placement order, RNG streams and the
	// digest fold order are all fixed here, so the worker count can
	// change only the wall clock. The returned finish adds the
	// workload's counters to res and folds its part of the digest after
	// the run.
	place(c *ShardedCloud, topo netsim.Config, until sim.Time) (finish func(res *ShardedResult, fold func(uint64)))
	// label names the telemetry record: experiment id and a point-label
	// prefix ("" for none) placed before "pods=N".
	label() (exp, prefix string)
}

// ShardedResult summarizes one sharded run.
type ShardedResult struct {
	Workers   int
	Hosts     int // addressable hosts in the topology
	Events    uint64
	Crossings uint64
	// Digest folds the workload's per-flow results in construction order
	// plus the event and crossing totals: two runs agree on the digest
	// iff the simulation behaved identically.
	Digest  uint64
	Elapsed time.Duration
	// Record is the merged telemetry (nil unless ShardedConfig.Telemetry).
	Record *obs.Record

	// Workload counters; each workload fills the ones it has.
	Pings        uint64 // PingMesh: completed pings
	Offered      uint64 // KV requests issued
	Completed    uint64 // KV hits + misses + PUT acks
	Hits         uint64
	Timeouts     uint64
	ElephantSent uint64 // TenantBoards: elephant datagrams accepted
	Throttled    uint64 // TenantBoards: elephant token-bucket throttles
}

// RunSharded builds the sharded cloud, places cfg.Workload, runs it for
// cfg.Duration, and returns counters, digest, and wall-clock time.
func RunSharded(cfg ShardedConfig) ShardedResult {
	topo := netsim.DefaultConfig()
	topo.Pods = cfg.Pods
	if cfg.HostsPerTOR > 0 {
		topo.HostsPerTOR = cfg.HostsPerTOR
	}
	if cfg.TORsPerPod > 0 {
		topo.TORsPerPod = cfg.TORsPerPod
	}
	if cfg.L1UplinkProp > 0 {
		topo.L1Uplink.Prop = cfg.L1UplinkProp
	}
	if cfg.L2CableSpread > 0 {
		topo.L2CableSpread = cfg.L2CableSpread
	}
	c := NewSharded(Options{
		Seed:      cfg.Seed,
		Topology:  topo,
		Shell:     cfg.Workload.shellConfig(),
		Telemetry: cfg.Telemetry,
	}, cfg.Workers)
	if cfg.SpanLimit > 0 {
		for _, ctx := range c.Obs {
			ctx.Tracer.SetLimit(cfg.SpanLimit)
		}
	}
	finish := cfg.Workload.place(c, topo, cfg.Duration)

	start := time.Now()
	c.Run(cfg.Duration)
	elapsed := time.Since(start)

	res := ShardedResult{
		Workers:   c.Group.Workers(),
		Hosts:     topo.Pods * topo.HostsPerTOR * topo.TORsPerPod,
		Events:    c.Fired(),
		Crossings: c.Group.Crossings,
		Elapsed:   elapsed,
	}
	h := uint64(14695981039346656037)
	fold := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	finish(&res, fold)
	fold(res.Events)
	fold(res.Crossings)
	res.Digest = h

	if cfg.Telemetry {
		// The point label deliberately omits the worker count: a parallel
		// run's telemetry must be byte-identical to the sequential run's.
		exp, point := cfg.Workload.label()
		if point != "" {
			point += " "
		}
		res.Record = obs.CollectGroup(c.Obs, exp,
			fmt.Sprintf("%spods=%d", point, cfg.Pods), cfg.Seed)
	}
	return res
}

// seqVsPar runs cfg sequentially and on workers goroutines; identical
// reports bit-equal digests and work counters. Telemetry rides the
// parallel run only: the sequential run's record would be byte-identical
// (the sharded determinism tests enforce that), so collecting both
// just duplicates records. Tracing appends spans but schedules nothing,
// so the traced run's digest still matches the untraced sequential one.
func seqVsPar(cfg ShardedConfig, workers int) (seq, par ShardedResult, identical bool) {
	cfg.Workers = 1
	seq = RunSharded(cfg)
	cfg.Telemetry = TelemetryEnabled()
	if cfg.Telemetry {
		cfg.SpanLimit = 4096
	}
	cfg.Workers = workers
	par = RunSharded(cfg)
	exp, _ := cfg.Workload.label()
	addTelemetry(exp, par.Record)
	identical = seq.Digest == par.Digest && seq.Pings == par.Pings && seq.Completed == par.Completed
	return seq, par, identical
}

// kvShardHosts places one KV shard per pod, on its pod's second TOR, in
// pod order.
func kvShardHosts(topo netsim.Config) []int {
	hosts := make([]int, topo.Pods)
	for p := range hosts {
		hosts[p] = p*topo.HostsPerTOR*topo.TORsPerPod + topo.HostsPerTOR
	}
	return hosts
}

// KVClients is the closed-loop KV client population E18c and E19c
// share: ClientsPerPod clients on each pod's first TOR, each issuing
// RequestsPerClient requests with exponential think time, the keyspace
// hashed across every pod's shard — so most requests cross pod (=
// shard) boundaries and the kernel's channels carry real traffic.
type KVClients struct {
	ClientsPerPod     int
	RequestsPerClient int
	Keys              int
	GetFraction       float64
	MeanGap           sim.Time
	Timeout           sim.Time
	// Start delays every client's first request (E19c: until the slots'
	// partial reconfigurations complete).
	Start sim.Time
	// MGetBatch > 1 coalesces each client's GETs into per-shard
	// multi-get datagrams of that size; buffered keys ride the next
	// flush, so the closed loop advances as soon as a key is queued.
	MGetBatch int
}

// start creates the clients pod-major, routing keys over shardHosts.
// Each client's RNG and closed-loop chain live on its own shard's wheel.
// The returned finish sums the clients' counters and folds their
// completion-stream digests in client order.
func (k KVClients) start(c *ShardedCloud, topo netsim.Config, shardHosts []int) func(*ShardedResult, func(uint64)) {
	perPod := topo.HostsPerTOR * topo.TORsPerPod
	lookup := func(hash uint64) int { return shardHosts[hash%uint64(len(shardHosts))] }
	var clients []*kvcache.Client
	for p := 0; p < topo.Pods; p++ {
		for i := 0; i < k.ClientsPerPod; i++ {
			h := p*perPod + i
			n := c.Node(h)
			ps := c.SimForHost(h)
			cl := kvcache.NewClient(ps, n.Shell, k.Timeout, lookup)
			clients = append(clients, cl)
			k.drive(ps, cl, len(shardHosts))
		}
	}
	return func(res *ShardedResult, fold func(uint64)) {
		for _, cl := range clients {
			res.Offered += cl.Stats.Gets.Value() + cl.Stats.Puts.Value()
			res.Completed += cl.Stats.Hits.Value() + cl.Stats.Misses.Value() + cl.Stats.PutAcks.Value()
			res.Hits += cl.Stats.Hits.Value()
			res.Timeouts += cl.Stats.Timeouts.Value()
			fold(cl.Digest())
		}
	}
}

// drive runs one client's closed loop on ps. The per-client RNG draw
// order is part of the digest: Intn(MeanGap) for the first request,
// then per request Intn(Keys) and Float64(), then ExpFloat64() for the
// think time.
func (k KVClients) drive(ps *sim.Simulation, cl *kvcache.Client, shards int) {
	rng := ps.NewRand()
	remaining := k.RequestsPerClient
	var next func(kvcache.Outcome)
	var pend [][]int
	var mkeys [][]byte
	var arena []byte
	if k.MGetBatch > 1 {
		pend = make([][]int, shards)
		mkeys = make([][]byte, k.MGetBatch)
		arena = make([]byte, k.MGetBatch*16)
	}
	mnext := func(kvcache.MResp, sim.Time, bool) { next(kvcache.Outcome{}) }
	issue := func() {
		if remaining == 0 {
			return
		}
		remaining--
		idx := rng.Intn(k.Keys)
		key := kvcache.MakeKey(idx, 16)
		if rng.Float64() >= k.GetFraction {
			cl.Put(key, kvcache.MakeVal(idx, 128), next)
			return
		}
		if k.MGetBatch <= 1 {
			cl.Get(key, next)
			return
		}
		sidx := cl.ShardOf(key, shards)
		pend[sidx] = append(pend[sidx], idx)
		if len(pend[sidx]) < k.MGetBatch {
			next(kvcache.Outcome{}) // buffered: the loop advances
			return
		}
		for i, kidx := range pend[sidx] {
			mkeys[i] = kvcache.MakeKeyInto(arena[i*16:(i+1)*16], kidx)
		}
		n := len(pend[sidx])
		pend[sidx] = pend[sidx][:0]
		cl.MultiGet(mkeys[:n], mnext)
	}
	next = func(kvcache.Outcome) {
		gap := sim.Time(rng.ExpFloat64() * float64(k.MeanGap))
		ps.Schedule(gap, issue)
	}
	ps.Schedule(k.Start+sim.Time(rng.Intn(int(k.MeanGap))), issue)
}
