package netsim

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// BenchmarkNetsimHotPath drives the serialization/propagation/forwarding
// hot path: a stream of UDP datagrams from one host to another across
// their shared TOR, measured per delivered frame. This is the per-hop
// cost every experiment pays for every frame.
//
// Recorded baseline before the decode-cache/pool/ScheduleCall overhaul:
// 1841 ns/op, 1847 B/op, 16 allocs/op.
func BenchmarkNetsimHotPath(b *testing.B) {
	s := sim.New(1)
	dc := NewDatacenter(s, DefaultConfig())
	a, c := dc.Host(0), dc.Host(1)
	got := 0
	c.RegisterUDP(9, func(f *pkt.Frame) { got++ })
	payload := make([]byte, 1024)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SendUDPRaw(c.IP(), 9, 9, pkt.ClassBestEffort, payload)
		if i%64 == 63 {
			s.Run()
		}
	}
	s.Run()
	if got != b.N {
		b.Fatalf("delivered %d/%d", got, b.N)
	}
}

// BenchmarkNoiseInject measures one background-noise frame end to end:
// injection on an L1 port, queueing, serialization, propagation and the
// drop at the TOR it reaches. It must report 0 allocs/op: a noise frame
// is a bytes-free pooled packet riding pooled events.
func BenchmarkNoiseInject(b *testing.B) {
	s := sim.New(1)
	dc := NewDatacenter(s, DefaultConfig())
	dc.Host(0)
	l1 := dc.L1(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1.InjectNoise(0, pkt.ClassBestEffort, 1100)
		if i%16 == 15 { // 16 frames stay below the RED threshold
			s.Run()
		}
	}
	s.Run()
	if got := dc.TOR(0, 0).Stats.NoRoute.Value(); got != uint64(b.N) {
		b.Fatalf("dropped %d/%d noise frames at the next hop", got, b.N)
	}
}

// benchHotPath is the shared body for the observability on/off pair
// below; enable toggles obs before the datacenter is built.
func benchHotPath(b *testing.B, enable bool) {
	s := sim.New(1)
	if enable {
		obs.Enable(s)
	}
	dc := NewDatacenter(s, DefaultConfig())
	a, c := dc.Host(0), dc.Host(1)
	got := 0
	c.RegisterUDP(9, func(f *pkt.Frame) { got++ })
	payload := make([]byte, 1024)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SendUDPRaw(c.IP(), 9, 9, pkt.ClassBestEffort, payload)
		if i%64 == 63 {
			s.Run()
		}
	}
	s.Run()
	if got != b.N {
		b.Fatalf("delivered %d/%d", got, b.N)
	}
}

// BenchmarkNetsimHotPathObsOff is the disabled-observability guard: it is
// the same workload as BenchmarkNetsimHotPath with the obs instrumentation
// sites compiled in but the tracer nil, and must stay within 5% of the
// pre-obs baseline (837 ns/op). The per-frame cost of disabled tracing is
// a nil pointer compare at each site.
func BenchmarkNetsimHotPathObsOff(b *testing.B) { benchHotPath(b, false) }

// BenchmarkNetsimHotPathObsOn measures the same workload with tracing
// enabled (counters increment; the span buffer saturates at its limit and
// further spans are dropped-but-counted, which is the steady state of a
// long traced run).
func BenchmarkNetsimHotPathObsOn(b *testing.B) { benchHotPath(b, true) }
