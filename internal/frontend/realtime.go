package frontend

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/sim"
)

// rtDriver paces the virtual clock against the wall clock. One
// goroutine owns the simulation: it advances virtual time toward
// target() (wall elapsed × dilation) and executes injection closures
// sent by HTTP handler goroutines in between. The metrics registry and
// the balancers are therefore only ever touched from that goroutine —
// the same single-threaded discipline the replay driver gets from its
// script lock.
//
// The loop advances back to back only while it has something to pace:
// a request is outstanding (its response must leave at its paced time,
// and a Go timer cannot wake at sub-millisecond precision), or the clock
// trails by a whole rtSlice or more. Otherwise it blocks until a task,
// a TickWall tick or quit; a task that wakes it first catches the clock
// up to the target, so its injection sees the lag continuous pacing
// would have left (DESIGN §6.8).
//
// When injections outpace the simulator, virtual time trails the wall
// clock; that lag is measured at each injection and charged against the
// request's deadline through svclb admission, so a fallen-behind
// frontend sheds by the paper's rule instead of queueing unboundedly.
type rtDriver struct {
	f *Service

	tasks chan func()
	quit  chan struct{}
	done  chan struct{}

	start    time.Time
	dilation float64

	mu     sync.Mutex
	closed bool

	// advances counts RunUntil calls made by the loop (sim thread).
	advances uint64
}

func newRTDriver(f *Service) *rtDriver {
	d := &rtDriver{
		f:        f,
		tasks:    make(chan func(), 4096),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		start:    time.Now(),
		dilation: f.cfg.Dilation,
	}
	go d.loop()
	return d
}

// target maps wall elapsed time onto the virtual clock.
func (d *rtDriver) target() sim.Time {
	return sim.Time(float64(time.Since(d.start)) * d.dilation)
}

// lag is how far virtual time trails the paced target (sim thread).
func (d *rtDriver) lag() sim.Time {
	l := d.target() - d.f.s.Now()
	if l < 0 {
		l = 0
	}
	return l
}

// rtSlice bounds how much virtual time one loop iteration may advance.
// A fallen-behind simulation must keep coming back for tasks: injected
// requests then see the lag and shed, instead of their handlers
// starving behind one enormous RunUntil.
const rtSlice = sim.Millisecond

func (d *rtDriver) loop() {
	defer close(d.done)
	tick := time.NewTicker(time.Duration(d.f.cfg.TickWall))
	defer tick.Stop()
	for {
		// Drain every queued task before paying for an advance: a slice
		// of a heavily loaded simulation can cost many wall milliseconds,
		// and handlers queued behind it must not serialize one-per-slice.
		select {
		case fn := <-d.tasks:
			fn()
			continue
		case <-d.quit:
			d.shutdown()
			return
		default:
		}
		if d.idle() {
			// Nothing to pace: block until traffic, the next tick, or quit.
			select {
			case fn := <-d.tasks:
				d.catchUp()
				fn()
				continue
			case <-tick.C:
			case <-d.quit:
				d.shutdown()
				return
			}
		}
		d.advance()
	}
}

// idle reports whether the loop may block (sim thread): the clock is
// caught up, or no request is outstanding and it trails by less than one
// rtSlice. A clock a whole slice behind keeps advancing slice by slice,
// so a fallen-behind frontend cannot hide its backlog in one catch-up.
func (d *rtDriver) idle() bool {
	lag := d.target() - d.f.s.Now()
	return lag <= 0 || (lag < rtSlice && d.f.outstanding() == 0)
}

// catchUp runs the clock to the paced target in rtSlice steps (sim
// thread). The loop blocks at most about one TickWall, so this covers
// that much virtual time times the dilation, plus less than one slice.
func (d *rtDriver) catchUp() {
	tgt := d.target()
	for now := d.f.s.Now(); now < tgt; now = d.f.s.Now() {
		d.runUntil(min(tgt, now+rtSlice))
	}
}

// advance runs the simulation toward the paced target, at most rtSlice
// per call.
func (d *rtDriver) advance() {
	now := d.f.s.Now()
	tgt := d.target()
	if tgt <= now {
		return
	}
	d.runUntil(min(tgt, now+rtSlice))
	// A fallen-behind loop advances back to back and would otherwise
	// monopolize a single-core scheduler; yield so handler goroutines can
	// enqueue (and answer) between slices.
	runtime.Gosched()
}

func (d *rtDriver) runUntil(t sim.Time) {
	d.f.s.RunUntil(t)
	d.advances++
}

// shutdown drains queued tasks, then virtual time, then stops the pools
// (sim thread). Tasks enqueued before Close set closed are all in the
// channel by the time quit is observed, so the non-blocking drain is
// complete.
func (d *rtDriver) shutdown() {
	for {
		select {
		case fn := <-d.tasks:
			fn()
		default:
			if !d.f.drainOutstanding(10*sim.Millisecond, 1<<12) {
				d.f.abandon("shutdown drain exhausted")
			}
			for _, name := range d.f.order {
				d.f.pipes[name].stop()
			}
			return
		}
	}
}

// do runs fn on the sim thread; false means shutting down or overloaded.
func (d *rtDriver) do(fn func()) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	select {
	case d.tasks <- fn:
		return true
	default:
		return false // ingress queue full: shed at the door
	}
}

func (d *rtDriver) submit(pl *pipeline, req inReq, respond func(Resp)) bool {
	return d.do(func() {
		d.f.inject(pl, req.Seq, d.lag(), respond)
	})
}

func (d *rtDriver) stats() Stats {
	ch := make(chan Stats, 1)
	if !d.do(func() { ch <- d.f.snapshotStats() }) {
		return Stats{Mode: RealTime.String()}
	}
	return <-ch
}

func (d *rtDriver) close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	close(d.quit)
	<-d.done
}
