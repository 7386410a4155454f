package svclb

import (
	"repro/internal/sim"
)

// AutoscaleConfig drives elastic lease scaling from windowed tail
// latency: every Interval the balancer snapshots the latency window and
// compares its p99 against the watermarks — above HighP99 it leases one
// more FPGA from the RM (if any are free and Max allows), below LowP99 it
// drains and releases the newest backend (down to Min). Interval <= 0
// disables scaling; otherwise NewServiceOn (and so NewService and Run)
// starts the controller and Service.Stop stops it.
type AutoscaleConfig struct {
	Interval sim.Time
	HighP99  sim.Time
	LowP99   sim.Time
	Min      int
	Max      int
	// MinSamples gates decisions on window population, so an idle or
	// freshly-scaled window does not trigger a flap.
	MinSamples uint64
}

type autoscaler struct {
	b      *Balancer
	cfg    AutoscaleConfig
	ticker *sim.Ticker
}

func (b *Balancer) startAutoscaler() *autoscaler {
	cfg := b.cfg.Autoscale
	if cfg.Min <= 0 {
		cfg.Min = 1
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = 20
	}
	as := &autoscaler{b: b, cfg: cfg}
	as.ticker = b.s.Every(cfg.Interval, cfg.Interval, as.tick)
	return as
}

func (as *autoscaler) stop() { as.ticker.Stop() }

func (as *autoscaler) tick() {
	b := as.b
	snap := b.winLat.Snapshot()
	if snap.Count() < as.cfg.MinSamples {
		return
	}
	p99 := sim.Time(snap.Percentile(99))
	live := len(b.router.Live())
	switch {
	case p99 > as.cfg.HighP99 && live < as.cfg.Max:
		// Lease rejection (no free FPGAs) is not fatal; the next window
		// retries.
		_ = b.grow()
	case p99 < as.cfg.LowP99 && live > as.cfg.Min:
		b.shrink()
	}
}
