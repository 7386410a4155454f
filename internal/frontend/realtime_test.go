package frontend

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// idleRealTime builds a real-time frontend with the KV pipeline on and
// no fabric noise: what stays scheduled is the pools' own gossip.
func idleRealTime(dilation float64, tickWall time.Duration) *Service {
	cfg := DefaultConfig()
	cfg.Mode = RealTime
	cfg.Dilation = dilation
	cfg.TickWall = int64(tickWall)
	cfg.BackgroundLoad = 0
	cfg.KV = KVConfig{Enabled: true}
	return New(cfg)
}

// TestRealTimeIdleDoesNotSpin: with no request outstanding, the pacing
// loop advances about once per TickWall instead of back to back.
func TestRealTimeIdleDoesNotSpin(t *testing.T) {
	f := idleRealTime(1, 0)
	start := time.Now()
	time.Sleep(100 * time.Millisecond)
	f.Close()
	wall := time.Since(start)
	// Close waits for the loop goroutine, so its counter is safe to read.
	ticks := uint64(wall / time.Duration(f.cfg.TickWall))
	if n := f.drv.(*rtDriver).advances; n > 4*ticks+16 {
		t.Fatalf("idle loop advanced %d times in %v (%d ticks): it spins", n, wall, ticks)
	}
	if f.s.Now() == 0 {
		t.Fatal("idle loop never advanced the clock")
	}
}

// TestRealTimeInjectAfterIdleIsPaced: a request arriving after an idle
// period is injected with the clock caught up, so admission sees about
// the lag continuous pacing would have left, not the idle period.
func TestRealTimeInjectAfterIdleIsPaced(t *testing.T) {
	for _, tc := range []struct {
		name     string
		dilation float64
		tickWall time.Duration
		idle     time.Duration
	}{
		// Idle ticks every 200µs. The slow dilations keep the idle
		// simulation well ahead of the wall clock on a loaded machine or
		// under -race, so what the test sees is the pacing, not a host
		// that cannot keep up.
		{"ticks", 0.05, 0, 50 * time.Millisecond},
		// No tick in the idle period: only the catch-up on wake moves the
		// clock, over 300ms×0.01 = 3ms virtual, three rtSlices.
		{"no-tick", 0.01, time.Hour, 300 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := idleRealTime(tc.dilation, tc.tickWall)
			defer f.Close()
			time.Sleep(tc.idle)
			ch := make(chan Resp, 1)
			if !f.drv.submit(f.pipeline("kv"), inReq{Seq: 1}, func(r Resp) { ch <- r }) {
				t.Fatal("submit refused")
			}
			if r := <-ch; r.Error != "" {
				t.Fatalf("kv request failed: %+v", r)
			}
			st := f.Stats()
			if st.LagPeakNs >= int64(rtSlice) {
				t.Fatalf("injection lag %v after idle, want < %v",
					sim.Time(st.LagPeakNs), rtSlice)
			}
			if want := sim.Time(float64(tc.idle) * tc.dilation); sim.Time(st.VirtualNs) < want {
				t.Fatalf("clock at %v after %v idle, want >= %v",
					sim.Time(st.VirtualNs), tc.idle, want)
			}
		})
	}
}
