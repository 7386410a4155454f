// Package shard runs a set of sim.Simulation instances as one logical
// simulation using conservative parallel discrete-event simulation
// (Chandy–Misra–Bryant-style lookahead). The model is partitioned at
// construction time into shards — in the datacenter topology, the L2
// spine is shard 0 and each pod is its own shard — and events that
// cross a shard boundary travel through per-directed-pair Outboxes
// (channels) instead of being scheduled directly.
//
// The engine is fully asynchronous ("channel-aware"). Every channel
// carries its own lookahead — the minimum virtual latency of that
// specific edge — and publishes an earliest-output time (EOT): a promise
// that no future message on the channel arrives before it. Each shard
// derives its safe horizon H from only its in-channel EOTs (H = min over
// in-EOTs), executes up to H-1, then republishes its own EOTs as
// lb + lookahead, where lb is a lower bound on its next action (min of
// its wheel, its pending in-messages, and H itself). Rising EOTs gossip
// through the channel graph as wakeups; shards with nothing to do park
// and cost nothing. There is no group-wide barrier: a shard never waits
// on a channel that cannot reach it.
//
// Cross-shard messages are consumed with one canonical interleave: per
// destination, the wheel is advanced in bulk to just before the
// earliest pending in-message (ordered by arrival time, then source
// shard, then source sequence), which is then inserted and overtaken.
// The resulting event order is a pure function of the model — (time,
// shard, seq) — and never of where a shard happened to pause, so a run
// with W workers is bit-identical to the same partition run
// sequentially.
//
// Determinism contract: the partition is part of the model, not of the
// execution. Varying the worker count never changes results; varying
// the partition (a different shard count or assignment) is a different
// model with different RNG streams, exactly like changing a topology
// parameter.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

const maxTime = sim.Time(1<<63 - 1)

// xmsg is one cross-shard event: fn(arg) due at absolute time at on the
// destination shard. seq is the per-channel send sequence; together
// with the channel's source shard it implements the deterministic
// (time, source, sequence) merge order.
type xmsg struct {
	at  sim.Time
	seq uint64
	fn  func(any)
	arg any
}

func msgLess(a, b xmsg) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Outbox is one directed cross-shard channel. Send may only be called
// from within the source shard's event handlers (or before the run
// starts). Obtain outboxes during model construction via Group.Outbox —
// never while the group is running.
//
// Internally the outbox is three single-owner regions plus a locked
// handoff: buf is staged by the source shard's goroutine during its
// step; msgs+eot is the mutex-guarded handoff the source flushes into;
// heap/drainBuf belong to the destination shard's goroutine. All
// buffers are reused run to run, so steady-state traffic allocates
// nothing.
type Outbox struct {
	g        *Group
	src, dst int32
	explicit sim.Time // per-channel lookahead override (0 = group default)

	// Producer side (source shard's goroutine only).
	seq uint64
	buf []xmsg

	// Handoff, guarded by mu. eot is the source's published promise:
	// no message later flushed into msgs arrives before it. news is the
	// producer's "handoff changed" flag: drain skips the mutex entirely
	// while it is clear, which is what keeps a hub shard (the spine has
	// one channel pair per pod) from paying two lock pairs per channel
	// per step. A drain racing a publish can miss the flag, but the
	// publisher always notifies after setting it, so the data is picked
	// up by the wakeup that follows.
	news atomic.Uint32
	mu   sync.Mutex
	msgs []xmsg
	eot  sim.Time

	// Consumer side (destination shard's goroutine only).
	heap     []xmsg // min-heap by (at, seq)
	drainBuf []xmsg // swap buffer exchanged with msgs at drain
	lastEOT  sim.Time
	merged   uint64 // messages consumed; deterministic
}

// look returns the channel's effective lookahead: the explicit
// per-channel value when set, the group default otherwise.
func (o *Outbox) look() sim.Time {
	if o.explicit > 0 {
		return o.explicit
	}
	return o.g.lookahead
}

// Send schedules fn(arg) on the destination shard after delay, measured
// from the source shard's clock. delay must be at least the channel's
// lookahead: that is the safety condition that lets shards advance
// concurrently, so a smaller delay is a partitioning bug and panics.
func (o *Outbox) Send(delay sim.Time, fn func(any), arg any) {
	if l := o.look(); delay < l {
		panic(fmt.Sprintf("shard: cross-shard delay %d < lookahead %d (shard %d -> %d)",
			delay, l, o.src, o.dst))
	}
	o.buf = append(o.buf, xmsg{
		at:  o.g.shards[o.src].Now() + delay,
		seq: o.seq,
		fn:  fn,
		arg: arg,
	})
	o.seq++
}

// pushMsg adds m to the consumer-side heap.
func (o *Outbox) pushMsg(m xmsg) {
	h := append(o.heap, m)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !msgLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	o.heap = h
}

// popMsg removes and returns the earliest pending message. The vacated
// slot is zeroed so fn/arg references are released.
func (o *Outbox) popMsg() xmsg {
	h := o.heap
	root := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = xmsg{}
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && msgLess(h[l], h[m]) {
			m = l
		}
		if r < len(h) && msgLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	o.heap = h
	return root
}

// Shard scheduling states for the park/wake protocol. The transitions are lock-free so a notify can never be
// lost: IDLE -CAS-> QUEUED (notifier enqueues), QUEUED -> RUNNING
// (worker pops), RUNNING -CAS-> DIRTY (notify during a step; the
// worker loops instead of parking), RUNNING -CAS-> IDLE (park), and
// RUNNING/DIRTY -> DONE (horizon past the deadline; wakeups stop).
const (
	stIdle int32 = iota
	stQueued
	stRunning
	stDirty
	stDone
)

// shardState is the per-shard scheduler block.
type shardState struct {
	ins  []*Outbox // in-channels, sorted by source shard
	outs []*Outbox // out-channels, in creation order

	state    atomic.Int32
	bit      atomic.Int32 // 1 while the shard may still own events <= deadline
	parkedAt atomic.Int64 // wall nanos at park; 0 when not timing
	parkNs   atomic.Int64 // accumulated park time this run (wall ns)

	hp    []*Outbox // channel tournament heap scratch
	limit sim.Time  // last safe horizon executed to
	lastH sim.Time  // horizon at the last full step (-1 = none this run)

	steps  uint64 // scheduler steps this run (wall-dependent)
	gossip uint64 // EOT publications that notified the peer this run

	// Cumulative totals across runs, for ShardStats.
	totSteps, totGossip uint64
	totPark             int64

	// Registered runtime metrics (nil when observability is off).
	mSteps, mPark, mGossip *metrics.Counter
	mHorizon               *metrics.Gauge
}

// ShardStats reports one shard's scheduler counters. Steps, EOTUpdates
// and Parked are wall-clock-dependent (they vary with worker
// interleaving); Merged and Horizon are deterministic.
type ShardStats struct {
	Steps      uint64        // scheduler steps
	EOTUpdates uint64        // EOT publications that woke the peer
	Parked     time.Duration // wall time spent parked while runnable peers advanced
	Horizon    sim.Time      // last safe horizon executed to
	Merged     uint64        // cross-shard messages merged into this shard
}

// Group is a fixed set of shards advanced together under a common
// virtual clock. Construct the model across the shards' simulations,
// register every cross-shard edge with Outbox (optionally tightening
// SetChannelLookahead per edge), set the group lookahead, and drive the
// whole thing with Run/RunUntil/RunFor from one goroutine.
type Group struct {
	seed      int64
	lookahead sim.Time
	workers   int
	shards    []*sim.Simulation
	outboxes  []*Outbox // creation order
	byPair    map[[2]int32]*Outbox
	states    []shardState
	running   bool

	// Scheduler shared state. runq is the stack of QUEUED shards.
	qmu      sync.Mutex
	qcond    sync.Cond
	runq     []int32
	stop     bool
	deadline sim.Time
	// single is set per run when only one goroutine will advance shards
	// (workers or GOMAXPROCS is 1): queue and handoff mutexes are
	// skipped, since every producer and the sole consumer share one
	// goroutine. Written before workers could exist, constant all run.
	single bool

	// pending counts shards whose bit is set: shards that may still
	// own an event <= deadline. Reaching zero is the global-quiescence
	// fast exit (nothing below the deadline exists anywhere, so EOT
	// gossip need not walk the remaining virtual time to it).
	pending atomic.Int64
	done    atomic.Int64

	// Observability, bound lazily at the first RunUntil (EnableGroup
	// runs after NewGroup).
	obsBound  bool
	metricsOn bool
	stepSpans bool
	tracers   []*obs.Tracer
	mMerged   *metrics.Counter
	pubMerged uint64

	// Crossings counts cross-shard events merged; it is stable for a
	// given model + deadline.
	Crossings uint64
}

// splitmix64 is the shard seed derivation: shard i of a group seeded S
// always gets the same RNG stream, regardless of worker count.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewGroup creates n shards seeded deterministically from seed.
// workers caps the goroutines advancing shards; values < 1 (and any
// value for a single-shard group) mean "one", which executes the whole
// schedule inline — the degenerate sequential mode every parallel run
// is compared against.
func NewGroup(seed int64, n, workers int) *Group {
	if n < 1 {
		panic("shard: group needs at least one shard")
	}
	g := &Group{
		seed:    seed,
		workers: workers,
		shards:  make([]*sim.Simulation, n),
		byPair:  make(map[[2]int32]*Outbox),
		states:  make([]shardState, n),
	}
	g.qcond.L = &g.qmu
	for i := range g.shards {
		g.shards[i] = sim.New(int64(splitmix64(uint64(seed) + uint64(i))))
	}
	return g
}

// N returns the number of shards.
func (g *Group) N() int { return len(g.shards) }

// Workers returns the effective worker count.
func (g *Group) Workers() int {
	if g.workers < 1 || len(g.shards) == 1 {
		return 1
	}
	if g.workers > len(g.shards) {
		return len(g.shards)
	}
	return g.workers
}

// Seed returns the group seed shard streams were derived from.
func (g *Group) Seed() int64 { return g.seed }

// Sim returns shard i's simulation, for constructing model components
// on it.
func (g *Group) Sim(i int) *sim.Simulation { return g.shards[i] }

// Sims returns all shard simulations in shard order.
func (g *Group) Sims() []*sim.Simulation { return g.shards }

// Lookahead returns the group-default (minimum cross-shard) lookahead.
func (g *Group) Lookahead() sim.Time { return g.lookahead }

// SetLookahead declares the minimum virtual latency of any cross-shard
// edge — the default lookahead for channels without an explicit one.
// It must be positive before a multi-shard group can run, and is fixed
// once running.
func (g *Group) SetLookahead(l sim.Time) {
	if l <= 0 {
		panic("shard: lookahead must be positive")
	}
	if g.running {
		panic("shard: SetLookahead while running")
	}
	g.lookahead = l
}

// SetChannelLookahead declares the minimum virtual latency of the
// specific src->dst edge, creating the channel if needed. Channels
// with more slack than the group minimum give proportionally wider
// safe horizons. l = 0 reverts to the group
// default. Construction-time only.
func (g *Group) SetChannelLookahead(src, dst int, l sim.Time) {
	if l < 0 {
		panic("shard: channel lookahead must be >= 0")
	}
	o := g.Outbox(src, dst)
	o.explicit = l
}

// ChannelLookahead reports the effective lookahead of the src->dst
// channel (0 when the channel does not exist).
func (g *Group) ChannelLookahead(src, dst int) sim.Time {
	if o := g.byPair[[2]int32{int32(src), int32(dst)}]; o != nil {
		return o.look()
	}
	return 0
}

// EnableStepSpans records one "shard.step" span per executed scheduler
// step on the shard's tracer. Step
// boundaries depend on wall-clock worker interleaving, so these spans
// are diagnostics: enabling them breaks the byte-identical-telemetry
// guarantee across worker counts. Off by default.
func (g *Group) EnableStepSpans() { g.stepSpans = true }

// Outbox returns the channel from shard src to shard dst, creating it
// on first use. Construction-time only: channel creation order is part
// of the deterministic merge order, so it must not race with a run.
func (g *Group) Outbox(src, dst int) *Outbox {
	if g.running {
		panic("shard: Outbox while running")
	}
	if src == dst {
		panic("shard: outbox endpoints must differ")
	}
	key := [2]int32{int32(src), int32(dst)}
	if o := g.byPair[key]; o != nil {
		return o
	}
	o := &Outbox{g: g, src: int32(src), dst: int32(dst)}
	g.byPair[key] = o
	g.outboxes = append(g.outboxes, o)
	g.states[src].outs = append(g.states[src].outs, o)
	// Keep in-channels sorted by source shard: the tournament heap
	// breaks arrival-time ties by source, and a sorted base makes the
	// scan order deterministic too.
	ins := g.states[dst].ins
	pos := len(ins)
	for pos > 0 && ins[pos-1].src > o.src {
		pos--
	}
	ins = append(ins, nil)
	copy(ins[pos+1:], ins[pos:])
	ins[pos] = o
	g.states[dst].ins = ins
	return o
}

// Now returns the group clock. Shard clocks only agree between runs;
// they all rest at the last deadline, which is what Now reports.
func (g *Group) Now() sim.Time { return g.shards[0].Now() }

// Fired sums executed events across all shards.
func (g *Group) Fired() uint64 {
	var n uint64
	for _, s := range g.shards {
		n += s.Fired()
	}
	return n
}

// ShardStats returns shard i's scheduler counters (see ShardStats).
func (g *Group) ShardStats(i int) ShardStats {
	st := &g.states[i]
	var merged uint64
	for _, c := range st.ins {
		merged += c.merged
	}
	return ShardStats{
		Steps:      st.totSteps,
		EOTUpdates: st.totGossip,
		Parked:     time.Duration(st.totPark),
		Horizon:    st.limit,
		Merged:     merged,
	}
}

// satAdd adds two times, saturating at maxTime.
func satAdd(a, b sim.Time) sim.Time {
	c := a + b
	if c < a {
		return maxTime
	}
	return c
}

// bindObs looks up the per-shard tracers and the shared registry once,
// lazily: observability is attached after NewGroup.
func (g *Group) bindObs() {
	if g.obsBound {
		return
	}
	g.obsBound = true
	g.tracers = make([]*obs.Tracer, len(g.shards))
	for i, s := range g.shards {
		g.tracers[i] = obs.TracerOf(s)
	}
	reg := obs.RegistryOf(g.shards[0])
	if reg == nil {
		return
	}
	g.metricsOn = true
	g.mMerged = reg.Counter("shard.merged", "events", "shard",
		"cross-shard events merged into destination wheels", new(metrics.Counter))
	for i := range g.states {
		st := &g.states[i]
		st.mSteps = reg.RuntimeCounter("shard.steps", "steps", "shard",
			"scheduler steps taken (wall-dependent)", new(metrics.Counter))
		st.mPark = reg.RuntimeCounter("shard.park_ns", "ns", "shard",
			"wall time shards spent parked waiting for a safe horizon", new(metrics.Counter))
		st.mGossip = reg.RuntimeCounter("shard.eot_updates", "updates", "shard",
			"EOT publications that notified the downstream shard", new(metrics.Counter))
		st.mHorizon = reg.RuntimeGauge("shard.horizon_ns", "ns", "shard",
			"last safe horizon (virtual ns) each shard executed to", new(metrics.Gauge))
	}
}

// publishRuntime folds this run's scheduler counters into the
// registered metrics and the cumulative ShardStats totals. Runs
// single-threaded after the workers have joined. The shard.merged
// counter is deterministic (and therefore telemetry-visible); the
// runtime-class step/park/gossip/horizon series are excluded from
// telemetry snapshots because they vary with worker interleaving.
func (g *Group) publishRuntime() {
	var merged uint64
	for _, o := range g.outboxes {
		merged += o.merged
	}
	g.Crossings = merged
	if g.mMerged != nil {
		g.mMerged.Add(merged - g.pubMerged)
		g.pubMerged = merged
	}
	for i := range g.states {
		st := &g.states[i]
		park := st.parkNs.Swap(0)
		st.totSteps += st.steps
		st.totGossip += st.gossip
		st.totPark += park
		if g.metricsOn {
			st.mSteps.Add(st.steps)
			st.mGossip.Add(st.gossip)
			st.mPark.Add(uint64(park))
			st.mHorizon.Set(int64(st.limit))
		}
		st.steps, st.gossip = 0, 0
	}
}

// RunUntil executes all events with timestamps <= deadline across every
// shard, then advances all shard clocks to deadline. Single-shard
// groups collapse to a plain sim.RunUntil — no scheduling at all.
func (g *Group) RunUntil(deadline sim.Time) {
	if len(g.shards) == 1 {
		g.shards[0].RunUntil(deadline)
		return
	}
	if g.lookahead <= 0 {
		panic("shard: multi-shard group needs SetLookahead before running")
	}
	g.bindObs()
	g.running = true
	g.run(deadline)
	g.running = false
	for _, s := range g.shards {
		s.RunUntil(deadline)
	}
	g.publishRuntime()
}

// RunFor advances the group clock by d from its current rest point.
func (g *Group) RunFor(d sim.Time) { g.RunUntil(g.Now() + d) }

// seedChannels moves construction-time (or previous-run) producer
// buffers into the locked handoffs and returns the earliest pending
// time anywhere in the group: wheels, consumer heaps, and staged
// messages. Called single-threaded before workers start.
func (g *Group) seedChannels() sim.Time {
	t0 := maxTime
	for _, s := range g.shards {
		if t, ok := s.NextEventTime(); ok && t < t0 {
			t0 = t
		}
	}
	for _, o := range g.outboxes {
		if len(o.buf) > 0 {
			o.msgs = append(o.msgs, o.buf...)
			for i := range o.buf {
				o.buf[i] = xmsg{}
			}
			o.buf = o.buf[:0]
		}
		if len(o.msgs) > 0 {
			o.news.Store(1)
		}
		for i := range o.msgs {
			if o.msgs[i].at < t0 {
				t0 = o.msgs[i].at
			}
		}
		if len(o.heap) > 0 && o.heap[0].at < t0 {
			t0 = o.heap[0].at
		}
	}
	return t0
}

// drain moves flushed messages from shard j's in-channel handoffs into
// its consumer heaps and refreshes the cached EOTs. Runs on the
// goroutine currently owning shard j.
func (g *Group) drain(j int) bool {
	changed := false
	for _, c := range g.states[j].ins {
		if c.news.Load() == 0 {
			continue
		}
		c.news.Store(0)
		changed = true
		if !g.single {
			c.mu.Lock()
		}
		taken := c.msgs
		if len(taken) > 0 {
			c.msgs = c.drainBuf[:0]
		}
		c.lastEOT = c.eot
		if !g.single {
			c.mu.Unlock()
		}
		if len(taken) > 0 {
			for i := range taken {
				c.pushMsg(taken[i])
				taken[i] = xmsg{}
			}
			c.drainBuf = taken[:0]
		}
	}
	return changed
}

// advance is the canonical merge-execute loop: run shard j's wheel and its pending in-messages in (time, source shard,
// source sequence) order up to and including limit, leaving the wheel
// clock at limit. The interleave is pause-point-independent — the
// sequence of wheel operations depends only on the model's event and
// message times, never on where a horizon fell — so every worker count
// produces the identical wheel history.
func (g *Group) advance(j int, limit sim.Time) {
	st := &g.states[j]
	s := g.shards[j]
	if limit < st.limit {
		// Horizons are monotone; a stale wake has nothing new to do.
		return
	}
	var fired0 uint64
	var span0 sim.Time
	if g.stepSpans {
		fired0, span0 = s.Fired(), s.Now()
	}

	// Tournament heap over in-channels with pending messages, keyed by
	// (head arrival, source shard).
	hp := st.hp[:0]
	for _, c := range st.ins {
		if len(c.heap) > 0 {
			hp = append(hp, c)
		}
	}
	chanLess := func(a, b *Outbox) bool {
		return a.heap[0].at < b.heap[0].at ||
			(a.heap[0].at == b.heap[0].at && a.src < b.src)
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(hp) && chanLess(hp[l], hp[m]) {
				m = l
			}
			if r < len(hp) && chanLess(hp[r], hp[m]) {
				m = r
			}
			if m == i {
				return
			}
			hp[i], hp[m] = hp[m], hp[i]
			i = m
		}
	}
	for i := len(hp)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}

	for len(hp) > 0 {
		c := hp[0]
		at := c.heap[0].at
		if at > limit {
			break
		}
		if at <= s.Now() {
			panic(fmt.Sprintf("shard: cross-shard event at t=%d arrived in shard %d's past (now=%d)",
				at, j, s.Now()))
		}
		// Execute every local event strictly before the message, then
		// insert it: the wheel's FIFO-within-instant order makes the
		// message run after same-time events scheduled before it and
		// before ones scheduled by it — identically in every run.
		s.RunUntil(at - 1)
		m := c.popMsg()
		s.ScheduleCall(m.at-s.Now(), m.fn, m.arg)
		c.merged++
		if len(c.heap) == 0 {
			hp[0] = hp[len(hp)-1]
			hp = hp[:len(hp)-1]
		}
		siftDown(0)
	}
	for i := range hp {
		hp[i] = nil
	}
	st.hp = hp[:0]
	s.RunUntil(limit)
	st.limit = limit

	if g.stepSpans {
		if tr := g.tracers[j]; tr != nil && s.Fired() > fired0 {
			id := tr.StartAt(obs.ShardFlow(j), "shard.step", 0, int64(span0))
			tr.SetArg(id, int64(s.Fired()-fired0))
			tr.EndAt(id, int64(limit))
		}
	}
}

// stopAll releases every worker (queued shards are abandoned; the
// caller has established no work <= deadline remains).
func (g *Group) stopAll() {
	if g.single {
		g.stop = true
		return
	}
	g.qmu.Lock()
	g.stop = true
	g.qmu.Unlock()
	g.qcond.Broadcast()
}

// workerLoop pops runnable shards until the run stops. The coordinator
// participates as worker zero. With a single worker the queue has one
// consumer and every producer is that same goroutine, so the loop runs
// lock-free and exits when the queue drains (all shards parked; in
// single-threaded execution a non-empty pending count with an empty
// queue would be a lost-wakeup bug, not a wait state).
func (g *Group) workerLoop() {
	if g.single {
		for !g.stop {
			n := len(g.runq)
			if n == 0 {
				return
			}
			j := g.runq[n-1]
			g.runq = g.runq[:n-1]
			g.step(int(j))
		}
		return
	}
	for {
		g.qmu.Lock()
		for len(g.runq) == 0 && !g.stop {
			g.qcond.Wait()
		}
		if g.stop {
			g.qmu.Unlock()
			return
		}
		j := g.runq[len(g.runq)-1]
		g.runq = g.runq[:len(g.runq)-1]
		g.qmu.Unlock()
		g.step(int(j))
	}
}

// run executes one RunUntil. EOTs are (re)initialized
// from the global earliest pending time T0 — a floor every shard's
// next action provably respects — and then only ever raised by their
// owning shard, so the horizon each shard reads is always a valid
// lower bound on its future arrivals. The run ends when every shard's
// horizon clears the deadline, or as soon as the pending count hits
// zero (global quiescence: nothing at or below the deadline exists
// anywhere, so the gossip need not walk EOTs the rest of the way).
func (g *Group) run(deadline sim.Time) {
	t0 := g.seedChannels()
	if t0 > deadline {
		return // nothing to execute; the caller's final sweep advances clocks
	}
	cap := satAdd(deadline, 1)
	for _, o := range g.outboxes {
		e := satAdd(t0, o.look())
		if e > cap {
			e = cap
		}
		o.eot = e
		o.lastEOT = 0
		o.news.Store(1) // every shard must observe the fresh initial EOTs
	}
	g.pending.Store(0)
	g.done.Store(0)
	g.stop = false
	g.single = g.spawnWorkers() == 1
	g.deadline = deadline
	g.runq = g.runq[:0]
	for j := range g.states {
		st := &g.states[j]
		st.state.Store(stQueued)
		st.parkedAt.Store(0)
		st.limit = 0
		st.lastH = -1
		pend := int32(0)
		if t, ok := g.shards[j].NextEventTime(); ok && t <= deadline {
			pend = 1
		}
		for _, c := range st.ins {
			if len(c.heap) > 0 && c.heap[0].at <= deadline {
				pend = 1
			}
			if len(c.msgs) > 0 { // pre-workers: lock-free read is safe
				for i := range c.msgs {
					if c.msgs[i].at <= deadline {
						pend = 1
						break
					}
				}
			}
		}
		st.bit.Store(pend)
		if pend == 1 {
			g.pending.Add(1)
		}
		g.runq = append(g.runq, int32(j))
	}
	if g.pending.Load() == 0 {
		return
	}
	var wg sync.WaitGroup
	for k := 0; k < g.spawnWorkers()-1; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.workerLoop()
		}()
	}
	g.workerLoop()
	wg.Wait()
}

// spawnWorkers is the goroutine count actually used for a run: the
// configured worker cap, clamped to GOMAXPROCS. Workers beyond the
// processor count cannot add parallelism — results are identical at
// every worker count by construction — but they do add futex ping-pong
// on every park/notify, so a single-core box runs the work-conserving
// loop on the coordinator alone.
func (g *Group) spawnWorkers() int {
	w := g.Workers()
	if p := runtime.GOMAXPROCS(0); w > p {
		w = p
	}
	return w
}

// horizon returns shard j's safe execution bound: the minimum EOT over
// its in-channels (cached at the last drain). Events strictly below it
// are complete — no future arrival can precede an in-channel's EOT.
func (g *Group) horizon(j int) sim.Time {
	h := maxTime
	for _, c := range g.states[j].ins {
		if c.lastEOT < h {
			h = c.lastEOT
		}
	}
	return h
}

// step is one asynchronous scheduler step for shard j: drain
// in-channels, execute up to the horizon, republish out-channel EOTs
// (waking downstream shards that gained horizon or messages), then
// park, finish, or loop if re-notified mid-step.
//
// The full merge-execute-flush body runs only when the shard's horizon
// actually moved. A hub shard (the spine in the E16 star) is notified
// once per in-channel per window but its horizon — the minimum over
// all of them — rises only after the slowest peer publishes, so most
// wakeups would scan every channel to conclude nothing changed. Those
// now cost a gated drain and a park: new messages without horizon
// motion need no action either, because they arrive at or beyond the
// horizon (not yet executable) and the producer already set this
// shard's pending bit.
func (g *Group) step(j int) {
	st := &g.states[j]
	st.state.Store(stRunning)
	deadline := g.deadline
	for {
		st.steps++
		if !g.drain(j) && st.lastH >= 0 {
			goto park
		}
		if h := g.horizon(j); h != st.lastH {
			st.lastH = h
			if !g.fullStep(j, h, deadline) {
				return
			}
		}
	park:
		if st.state.CompareAndSwap(stRunning, stIdle) {
			if g.metricsOn {
				st.parkedAt.Store(time.Now().UnixNano())
			}
			return
		}
		// Re-notified mid-step: consume the DIRTY mark and loop.
		st.state.Store(stRunning)
	}
}

// fullStep executes shard j up to horizon h, republishes its
// out-channels, and maintains the quiescence accounting. It returns
// false when the shard (or the whole run) is finished and the caller
// must not park or loop.
func (g *Group) fullStep(j int, h, deadline sim.Time) bool {
	st := &g.states[j]
	s := g.shards[j]
	for {
		limit := deadline
		if h != maxTime && h-1 < limit {
			limit = h - 1
		}
		g.advance(j, limit)

		// Lower bound on this shard's next action: its own wheel, its
		// still-pending in-messages, or — if neither binds — the
		// horizon itself (any future arrival is >= H, and anything the
		// shard ever does next starts from one of these three).
		lb := h
		if t, ok := s.NextEventTime(); ok && t < lb {
			lb = t
		}
		for _, c := range st.ins {
			if len(c.heap) > 0 && c.heap[0].at < lb {
				lb = c.heap[0].at
			}
		}
		for _, c := range st.outs {
			g.flushChannel(c, st, lb, deadline)
		}

		// Pending-bit maintenance. The bit stays 1 while this shard may
		// still own an event <= deadline; producers set the
		// destination's bit (inside flushChannel) before clearing their
		// own, so a zero global count proves quiescence below the
		// deadline — with one recheck for messages staged to us between
		// our drain and our clear.
		ownPending := false
		if t, ok := s.NextEventTime(); ok && t <= deadline {
			ownPending = true
		}
		if !ownPending {
			for _, c := range st.ins {
				if len(c.heap) > 0 && c.heap[0].at <= deadline {
					ownPending = true
					break
				}
			}
		}
		if ownPending {
			if st.bit.Swap(1) == 0 {
				g.pending.Add(1)
			}
		} else if st.bit.Swap(0) == 1 {
			if g.pending.Add(-1) == 0 {
				g.drain(j)
				redo := false
				for _, c := range st.ins {
					if len(c.heap) > 0 && c.heap[0].at <= deadline {
						redo = true
						break
					}
				}
				if redo {
					st.bit.Store(1)
					g.pending.Add(1)
					// The recheck's drain may have refreshed EOTs too.
					h = g.horizon(j)
					st.lastH = h
					continue
				}
				g.stopAll()
				return false
			}
		}

		if h > deadline {
			// Horizon cleared the deadline: limit == deadline, so all
			// local work is done, and every future arrival is beyond
			// it. Stable — this shard needs no further wakeups.
			st.state.Store(stDone)
			if g.done.Add(1) == int64(len(g.shards)) {
				g.stopAll()
			}
			return false
		}
		return true
	}
}

// flushChannel publishes shard state on one out-channel: staged
// messages move into the handoff and the EOT is raised to lb + the
// channel's lookahead (capped just past the deadline — EOTs beyond it
// are equivalent, and the cap lets horizons clear the deadline without
// gossiping virtual time to infinity). The destination is notified
// when either changed; that notification is the engine's only wakeup
// ("null message"), so it must never be skipped when state advanced.
func (g *Group) flushChannel(c *Outbox, st *shardState, lb, deadline sim.Time) {
	newEOT := satAdd(lb, c.look())
	if cap := satAdd(deadline, 1); newEOT > cap {
		newEOT = cap
	}
	hasMsgs := len(c.buf) > 0
	// Quiet channel: nothing staged and no EOT progress (c.eot has a
	// single writer — this goroutine — so the unlocked read is sound).
	// This is the common case for a hub shard woken by one neighbor:
	// its other channels' promises haven't moved.
	if !hasMsgs && newEOT <= c.eot {
		return
	}
	minAt := maxTime
	if hasMsgs {
		for i := range c.buf {
			if c.buf[i].at < minAt {
				minAt = c.buf[i].at
			}
		}
	}
	notify := false
	if !g.single {
		c.mu.Lock()
	}
	if hasMsgs {
		c.msgs = append(c.msgs, c.buf...)
		notify = true
	}
	if newEOT > c.eot {
		c.eot = newEOT
		notify = true
	}
	if !g.single {
		c.mu.Unlock()
	}
	if notify {
		c.news.Store(1)
	}
	if hasMsgs {
		for i := range c.buf {
			c.buf[i] = xmsg{}
		}
		c.buf = c.buf[:0]
		if minAt <= deadline {
			dst := &g.states[c.dst]
			if dst.bit.Swap(1) == 0 {
				g.pending.Add(1)
			}
		}
	}
	if notify {
		st.gossip++
		g.notify(c.dst)
	}
}

// notify wakes shard dst: enqueue it if parked, mark it dirty if
// mid-step. The CAS loop guarantees a wakeup is never lost between a
// shard deciding to park and an upstream publishing new state.
func (g *Group) notify(dst int32) {
	st := &g.states[dst]
	for {
		switch st.state.Load() {
		case stIdle:
			if st.state.CompareAndSwap(stIdle, stQueued) {
				if g.metricsOn {
					if p := st.parkedAt.Load(); p != 0 {
						st.parkNs.Add(time.Now().UnixNano() - p)
						st.parkedAt.Store(0)
					}
				}
				if g.single {
					g.runq = append(g.runq, dst)
					return
				}
				g.qmu.Lock()
				g.runq = append(g.runq, dst)
				g.qmu.Unlock()
				g.qcond.Signal()
				return
			}
		case stRunning:
			if st.state.CompareAndSwap(stRunning, stDirty) {
				return
			}
		default: // queued, dirty, or done: wakeup already pending or unneeded
			return
		}
	}
}
