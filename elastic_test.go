package configcloud

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/svclb"
	"repro/internal/workload"
)

// TestElasticPoolTracksDiurnalDemand is the full-stack version of the
// paper's pool-elasticity claim: "As demand for a service grows or
// shrinks, a global manager grows or shrinks the pools correspondingly."
// A packet-level svclb service runs under its p99-watermark autoscaler
// while the offered load follows the diurnal curve; the leased FPGA
// count must track demand, and no admitted request may be lost while
// backends are leased and drained.
func TestElasticPoolTracksDiurnalDemand(t *testing.T) {
	const (
		meanRate = 12000.0        // req/s; one FPGA serves 4000
		dayLen   = 2 * sim.Second // compressed day
	)
	cfg := svclb.DefaultConfig()
	cfg.Seed = 17
	cfg.Clients = 8
	cfg.FPGAs = 2
	cfg.Spares = 0
	cfg.Warmup, cfg.Duration = 0, 0
	cfg.BackgroundLoad = 0
	cfg.ReqBytes = 256 // keeps the on-chip router cheap; the test is about the pool
	cfg.Autoscale = svclb.AutoscaleConfig{
		Interval: 50 * sim.Millisecond,
		HighP99:  8 * cfg.ServiceTime,
		LowP99:   3 * cfg.ServiceTime,
		Min:      2,
		Max:      8,
	}
	sv := svclb.NewService(cfg)
	s := sv.Sim()

	// Diurnal demand, from ~1.9 to ~4.1 FPGAs' worth of work.
	diurnal := workload.DefaultDiurnal()
	rng := s.NewRand()
	next := 0
	gen := workload.NewOpenLoop(s, meanRate, func() {
		sv.Submit(next%cfg.Clients, svclb.Request{})
		next++
	})
	gen.Start()
	s.Every(10*sim.Millisecond, 10*sim.Millisecond, func() {
		day := sim.Time(float64(s.Now()) * float64(sim.Day) / float64(dayLen))
		gen.SetRate(meanRate * diurnal.Load(day, rng))
	})

	// Sample pool size at trough (start of day) and peak (midday) over
	// two days.
	var troughSizes, peakSizes []int
	size := func() int { return sv.Result().FinalBackends }
	s.Every(dayLen/8, dayLen, func() { troughSizes = append(troughSizes, size()) })
	s.Every(dayLen/2, dayLen, func() { peakSizes = append(peakSizes, size()) })

	s.RunUntil(2 * dayLen)
	gen.Stop()
	s.RunUntil(2*dayLen + cfg.Drain)
	sv.Stop()
	r := sv.Result()

	if len(peakSizes) < 2 || len(troughSizes) < 2 {
		t.Fatalf("samples: peak=%v trough=%v", peakSizes, troughSizes)
	}
	// The pool must be visibly larger at peak than at trough.
	peak := peakSizes[len(peakSizes)-1]
	trough := troughSizes[len(troughSizes)-1]
	if peak <= trough {
		t.Fatalf("pool did not track demand: peak=%d trough=%d (history peak=%v trough=%v)",
			peak, trough, peakSizes, troughSizes)
	}
	if r.Grown == 0 || r.Shrunk == 0 {
		t.Errorf("controller never cycled: grown=%d shrunk=%d", r.Grown, r.Shrunk)
	}
	if r.Admitted != r.Completed {
		t.Errorf("admitted %d but completed %d across scaling", r.Admitted, r.Completed)
	}
}
