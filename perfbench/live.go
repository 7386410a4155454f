package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/frontend"
	"repro/internal/sim"
)

// liveSize shapes the live workload: the real-time HTTP frontend over
// loopback at dilation 1 with no fabric noise. Traffic is 75% /v1/kv on
// a small warm keyspace (every 4th request a PUT) and 25% /v1/rank, an
// open-loop Poisson stream over Procs keep-alive connections.
type liveSize struct {
	Rate      float64       // req/s of the measured stream
	Warm      time.Duration // open-loop warm-up, excluded
	MinStream time.Duration // shortest measured stream
	Burst     int           // closed-loop requests timed as run_s
	Keys      int
	Ladder    []float64 // req/s rungs above Rate, traced runs only
	Rung      time.Duration
	P99Limit  time.Duration // latency limit of a ladder rung
	Healthz   int           // /healthz probes
	SetupReps int
}

func liveSizeFor(tiny bool) liveSize {
	sz := liveSize{
		Rate: 500, Warm: time.Second, MinStream: time.Second, Burst: 400, SetupReps: 41,
		// An odd keyspace: the frontend picks a request's key as
		// seq*2654435761 % Keys and makes every 4th seq a PUT, so with a
		// power-of-two keyspace PUTs only ever reach a quarter of the keys
		// and GETs never hit.
		Keys:   127,
		Ladder: []float64{1000, 2000, 4000}, Rung: 1500 * time.Millisecond,
		P99Limit: 100 * time.Millisecond,
		Healthz:  400,
	}
	if tiny {
		sz.Warm, sz.MinStream, sz.Rung = 100*time.Millisecond, 200*time.Millisecond, 200*time.Millisecond
		sz.Burst, sz.Healthz, sz.SetupReps = 50, 20, 2
	}
	return sz
}

// livePutEvery makes every 4th seq a KV PUT; the rest are GETs.
const livePutEvery = 4

// liveServer is one frontend behind a loopback HTTP listener.
type liveServer struct {
	f        *frontend.Service
	srv      *http.Server
	url      string
	done     chan struct{}
	stopOnce sync.Once
}

func startLive(seed int64, sz liveSize, telemetry bool) (*liveServer, error) {
	cfg := frontend.DefaultConfig()
	cfg.Seed = seed
	cfg.Mode = frontend.RealTime
	cfg.Dilation = 1
	cfg.BackgroundLoad = 0
	cfg.KV = frontend.KVConfig{Enabled: true, Keys: sz.Keys, PutEvery: livePutEvery}
	// Admission runs on every rank request but sheds only when the paced
	// clock falls a whole second behind. With at most 2 requests in the
	// frontend (one per connection), lag comes from host scheduling
	// stalls, not from load, and at the 2.5 ms default such a stall sheds
	// a request now and then: runs would differ in what they measured.
	cfg.Rank.Deadline = sim.Second
	cfg.Telemetry = telemetry
	if telemetry {
		cfg.SpanLimit = 1 << 20
	}
	f := frontend.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	ls := &liveServer{f: f, srv: &http.Server{Handler: frontend.NewHandler(f)},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		_ = ls.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return ls, nil
}

// stop shuts the listener down, waits for its goroutine, then drains
// and closes the frontend.
// Idempotent.
func (ls *liveServer) stop() {
	ls.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = ls.srv.Shutdown(ctx) // a timeout leaves Close below to cut connections
		_ = ls.srv.Close()
		<-ls.done
		ls.f.Close()
	})
}

// liveClient is the harness's HTTP generator: conns keep-alive
// connections, one http.Client each, requests spread round-robin.
type liveClient struct {
	clients []*http.Client
	url     string
	mu      sync.Mutex
	nextSeq uint64
	rng     *rand.Rand
}

func newLiveClient(url string, conns int, seed int64) *liveClient {
	lc := &liveClient{url: url, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < conns; i++ {
		lc.clients = append(lc.clients, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return lc
}

func (lc *liveClient) close() {
	for _, c := range lc.clients {
		c.CloseIdleConnections()
	}
}

// liveResp mirrors the frontend's response body.
type liveResp struct {
	Seq       uint64 `json:"seq"`
	Pipeline  string `json:"pipeline"`
	Admitted  bool   `json:"admitted"`
	LatencyNs int64  `json:"latency_ns"`
	Hit       bool   `json:"hit"`
	Error     string `json:"error"`
}

// outcome is one request as the generator saw it.
type outcome struct {
	seq      uint64
	pipeline string
	ok       bool   // 200, admitted, and the body named this seq and pipeline
	crossed  bool   // the body named another request
	err      string // transport error, non-200 or shed
	wall     time.Duration
	late     time.Duration // how late the generator sent it
	virt     int64
	hit      bool
}

// post sends one request and classifies its answer. Latency is measured
// from due, the time the request was scheduled to leave.
func (lc *liveClient) post(c *http.Client, seq uint64, pipeline string, due time.Time) outcome {
	o := outcome{seq: seq, pipeline: pipeline, late: time.Since(due)}
	body := fmt.Sprintf(`{"seq":%d}`, seq)
	resp, err := c.Post(lc.url+"/v1/"+pipeline, "application/json", bytes.NewBufferString(body))
	if err != nil {
		o.err = err.Error()
		return o
	}
	defer resp.Body.Close()
	var lr liveResp
	derr := json.NewDecoder(resp.Body).Decode(&lr)
	o.wall = time.Since(due)
	switch {
	case derr != nil:
		o.err = "undecodable body: " + derr.Error()
	case resp.StatusCode != http.StatusOK || !lr.Admitted:
		o.err = fmt.Sprintf("status %d %s", resp.StatusCode, lr.Error)
	case lr.Seq != seq || lr.Pipeline != pipeline:
		o.crossed = true
		o.err = fmt.Sprintf("sent seq %d to %s, answer named seq %d of %s", seq, pipeline, lr.Seq, lr.Pipeline)
	default:
		o.ok, o.virt, o.hit = true, lr.LatencyNs, lr.Hit
	}
	return o
}

// take reserves the next n sequence numbers.
func (lc *liveClient) take(n int) uint64 {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	s := lc.nextSeq
	lc.nextSeq += uint64(n)
	return s
}

// pipelineFor draws a request's pipeline: 75% kv, 25% rank.
func (lc *liveClient) pipelineFor() string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.drawPipeline()
}

// drawPipeline is pipelineFor for a caller holding mu.
func (lc *liveClient) drawPipeline() string {
	if lc.rng.Float64() < 0.75 {
		return "kv"
	}
	return "rank"
}

// openLoop sends a Poisson stream at rate for d: each request leaves at
// its scheduled time whether or not earlier ones have been answered.
func (lc *liveClient) openLoop(rate float64, d time.Duration) []outcome {
	type sched struct {
		seq  uint64
		pipe string
		at   time.Duration
	}
	var plan []sched
	lc.mu.Lock()
	for t := time.Duration(0); ; {
		t += time.Duration(lc.rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			break
		}
		plan = append(plan, sched{lc.nextSeq, lc.drawPipeline(), t})
		lc.nextSeq++
	}
	lc.mu.Unlock()

	out := make([]outcome, len(plan))
	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range plan {
		due := start.Add(p.at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, p sched, due time.Time) {
			defer wg.Done()
			out[i] = lc.post(lc.clients[i%len(lc.clients)], p.seq, p.pipe, due)
		}(i, p, due)
	}
	wg.Wait()
	return out
}

// closedLoop sends n requests, each connection sending its next request
// as soon as its previous one is answered.
func (lc *liveClient) closedLoop(n int, pipeline func(i int) string, seqs []uint64) []outcome {
	out := make([]outcome, n)
	var wg sync.WaitGroup
	for ci, c := range lc.clients {
		wg.Add(1)
		go func(ci int, c *http.Client) {
			defer wg.Done()
			for i := ci; i < n; i += len(lc.clients) {
				out[i] = lc.post(c, seqs[i], pipeline(i), time.Now())
			}
		}(ci, c)
	}
	wg.Wait()
	return out
}

// healthz times n sequential GET /healthz calls on one connection: the
// bare HTTP stack, outside the simulation.
func (lc *liveClient) healthz(n int, log *spanLog) ([]float64, error) {
	var us []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := lc.clients[0].Get(lc.url + "/healthz")
		if err != nil {
			return nil, fmt.Errorf("healthz: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		d := time.Since(t0)
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("healthz: status %d, %v", resp.StatusCode, err)
		}
		log.add("http", "GET /healthz", t0, d)
		us = append(us, float64(d)/1e3)
	}
	return us, nil
}

// tally checks a batch of outcomes: every request answered exactly once
// by a body naming its own seq.
type tally struct {
	attempted, failed int64
	walls             []float64 // ms of ok requests
	wallMinusVirt     []float64
	late              []float64
	kvGets, kvHits    int64
	kvVirt            []float64 // ns
	digest            uint64
	errs              []string // the first few failures
}

func (t *tally) add(r *report, outs []outcome) {
	seen := map[uint64]bool{}
	for _, o := range outs {
		t.attempted++
		r.check(!seen[o.seq], "seq %d answered twice", o.seq)
		seen[o.seq] = true
		r.check(!o.crossed, "%s", o.err)
		t.late = append(t.late, float64(o.late)/1e6)
		if !o.ok {
			t.failed++
			if len(t.errs) < 3 {
				t.errs = append(t.errs, fmt.Sprintf("seq %d %s: %s", o.seq, o.pipeline, o.err))
			}
			continue
		}
		ms := float64(o.wall) / 1e6
		t.walls = append(t.walls, ms)
		t.wallMinusVirt = append(t.wallMinusVirt, ms-float64(o.virt)/1e6)
		if o.pipeline == "kv" {
			t.kvVirt = append(t.kvVirt, float64(o.virt))
			if o.seq%livePutEvery != 0 {
				t.kvGets++
				if o.hit {
					t.kvHits++
				}
			}
		}
		t.digest = fnv(fnv(t.digest, o.seq), uint64(len(o.pipeline)))
	}
}

func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// burst serves n closed-loop requests of the stream's mix and times it.
func (lc *liveClient) burst(n int) (rep, []outcome) {
	base := lc.take(n)
	seqs := make([]uint64, n)
	pipes := make([]string, n)
	for i := range seqs {
		seqs[i] = base + uint64(i)
		pipes[i] = lc.pipelineFor()
	}
	var outs []outcome
	r := measure(func() { outs = lc.closedLoop(n, func(i int) string { return pipes[i] }, seqs) })
	return r, outs
}

// bursts repeats burst until the deadline (at least atLeast times) and
// returns the median wall time.
func (lc *liveClient) bursts(r *report, t *tally, n, atLeast int, deadline time.Time) float64 {
	reps := repeatUntil(deadline, atLeast, func() rep {
		br, outs := lc.burst(n)
		t.add(r, outs)
		return br
	})
	r.label("wall s/steal s/run_s of each burst: %s", repRuns(reps))
	_, run, _, _, _ := repStats(reps)
	return run
}

// runLive serves the frontend on loopback and drives it: warm-up, the
// measured open-loop stream (latency, CPU, heap), closed-loop bursts
// (run_s) and /healthz probes. A traced run also profiles the stream,
// climbs the rate ladder and repeats stream and bursts on a
// telemetry-on service for the virtual-time split.
func runLive(cfg runConfig) *report {
	r := newReport("live")
	sz := liveSizeFor(cfg.Tiny)
	start := time.Now()
	end := cfg.deadline(start)
	conns := cfg.Procs
	if conns > 2 {
		conns = 2
	}

	// Set-up: the service the run uses is the first of SetupReps timed
	// builds; the rest are built and torn down after the measurements.
	var ls *liveServer
	var err error
	setups := []float64{timeSetup(func() { ls, err = startLive(cfg.Seed, sz, false) }).Seconds()}
	if err != nil {
		r.check(false, "%v", err)
		return r
	}
	lc := newLiveClient(ls.url, conns, cfg.Seed)
	defer func() {
		lc.close()
		ls.stop()
	}()

	// Warm the keyspace: one PUT per key (seqs 0, 4, 8, ... map onto
	// every key of the odd keyspace), then an unmeasured stream.
	warmSeqs := make([]uint64, sz.Keys)
	for i := range warmSeqs {
		warmSeqs[i] = uint64(livePutEvery * i)
	}
	lc.take(livePutEvery * sz.Keys)
	var all tally
	all.add(r, lc.closedLoop(sz.Keys, func(int) string { return "kv" }, warmSeqs))
	all.add(r, lc.openLoop(sz.Rate, sz.Warm))

	// Budget: a plain run splits what is left between the stream and the
	// bursts; a traced run keeps half for the rate ladder and telemetry.
	budget := end.Sub(time.Now())
	if cfg.Trace {
		budget /= 2
	}
	streamDur := budget / 2
	if streamDur < sz.MinStream {
		streamDur = sz.MinStream
	}

	var prof *profiler
	if cfg.Trace {
		if prof, err = startProfile(); err != nil {
			r.check(false, "%v", err)
			return r
		}
	}
	var stream tally
	stream.digest = fnvBasis
	var outs []outcome
	streamRep := measure(func() { outs = lc.openLoop(sz.Rate, streamDur) })
	stream.add(r, outs)
	var shares map[string]float64
	if cfg.Trace {
		shares, err = prof.stop()
		r.check(err == nil, "fold profile: %v", err)
	}
	runS := lc.bursts(r, &all, sz.Burst, 3, time.Now().Add(budget-streamDur))

	var log *spanLog
	if cfg.Trace {
		log = newSpanLog(1 << 16)
	}
	hz, err := lc.healthz(sz.Healthz, log)
	r.check(err == nil, "%v", err)
	st := ls.f.Stats()
	var maxRPS float64
	if cfg.Trace {
		maxRPS = lc.ladder(r, sz, stream)
	}
	lc.close()
	ls.stop()
	for len(setups) < sz.SetupReps {
		var extra *liveServer
		d := timeSetup(func() { extra, err = startLive(cfg.Seed, sz, false) })
		if err != nil {
			r.check(false, "%v", err)
			return r
		}
		extra.stop()
		setups = append(setups, d.Seconds())
	}

	r.Digest = stream.digest
	r.Attempted = all.attempted + stream.attempted
	r.Failed = all.failed + stream.failed
	r.check(r.Failed == 0, "%d of %d requests failed: %s", r.Failed, r.Attempted,
		strings.Join(append(all.errs, stream.errs...), "; "))
	r.label("rate=%g req/s conns=%d stream=%s burst=%d keys=%d", sz.Rate, conns, streamDur.Round(time.Millisecond), sz.Burst, sz.Keys)
	r.set("setup_s", median(setups), "s")
	r.set("run_s", runS, "s")
	r.set("cpu_s", streamRep.CPU.Seconds()/streamRep.runS(), "s")
	r.set("peak_heap_mb", streamRep.HeapMB, "MB")
	r.set("alloc_mb", streamRep.AllocMB, "MB")
	r.set("http_p50_ms", median(stream.walls), "ms")
	r.set("http_p99_ms", quantile(stream.walls, 0.99), "ms")
	r.set("http_samples", float64(len(stream.walls)), "count")
	r.set("loadgen.late_ms", quantile(stream.late, 0.99), "ms")
	r.set("frontend.wall_minus_virt_p50_ms", median(stream.wallMinusVirt), "ms")
	r.set("http.healthz_p50_us", median(hz), "us")
	if stream.kvGets > 0 {
		r.set("kv.hit_rate", float64(stream.kvHits)/float64(stream.kvGets), "ratio")
	}
	r.set("kv.virt_p99_us", quantile(stream.kvVirt, 0.99)/1e3, "us")
	var shed uint64
	for _, p := range st.Pipelines {
		shed += p.Shed
	}
	r.set("svclb.shed", float64(shed), "count")
	r.set("frontend.lag_peak_ms", float64(st.LagPeakNs)/1e6, "ms")
	if !cfg.Trace {
		return r
	}

	setCPUShares(r, shares)
	if err := log.write(fmt.Sprintf("live-seed%d", cfg.Seed)); err != nil {
		r.check(false, "write spans: %v", err)
	}
	r.set("http_max_rps", maxRPS, "1/s")

	// Telemetry-on service, alone like the plain one was: the virtual-time
	// split of the request path, and the tracing overhead on the bursts.
	lsT, err := startLive(cfg.Seed, sz, true)
	if err != nil {
		r.check(false, "%v", err)
		return r
	}
	lcT := newLiveClient(lsT.url, conns, cfg.Seed)
	var traced tally
	traced.add(r, lcT.openLoop(sz.Rate, streamDur/4))
	tracedRun := lcT.bursts(r, &traced, sz.Burst, 3, end)
	lcT.close()
	lsT.stop()
	r.set("obs.overhead_frac", tracedRun/runS-1, "ratio")
	if rec := lsT.f.Telemetry("perfbench"); rec != nil {
		self := map[string]float64{}
		foldSelfTime(rec.Spans, self)
		setVirtShares(r, self)
	}
	r.set("sim.events", float64(lsT.f.Sim().Fired()), "count")
	return r
}

// ladder climbs the rate rungs above the measured stream and returns the
// highest rate whose p99 meets the limit with at most 1% failed — shed
// and failed requests are expected past saturation and count only here.
func (lc *liveClient) ladder(r *report, sz liveSize, stream tally) float64 {
	limit := float64(sz.P99Limit) / 1e6
	if quantile(stream.walls, 0.99) >= limit || stream.failFrac() > 0.01 {
		return 0
	}
	best := sz.Rate
	for _, rate := range sz.Ladder {
		var rung tally
		for _, o := range lc.openLoop(rate, sz.Rung) {
			r.check(!o.crossed, "%s", o.err)
			rung.attempted++
			if !o.ok {
				rung.failed++
				continue
			}
			rung.walls = append(rung.walls, float64(o.wall)/1e6)
		}
		if quantile(rung.walls, 0.99) >= limit || rung.failFrac() > 0.01 {
			break
		}
		best = rate
	}
	return best
}
