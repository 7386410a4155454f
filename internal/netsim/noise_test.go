package netsim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// refNoise is the byte-backed noise frame InjectNoise used to build: the
// real encoding, written out here independently of the template code.
func refNoise(class pkt.TrafficClass, size int) []byte {
	payload := make([]byte, size-pkt.EthHeaderLen-pkt.IPv4HeaderLen-pkt.UDPHeaderLen-pkt.EthFCSLen)
	return pkt.EncodeUDP(
		pkt.MAC{0x02, 0xee, 0, 0, 0, 1}, pkt.Broadcast,
		pkt.IP{255, 255, 255, 254}, pkt.IP{255, 255, 255, 255},
		9, 9, class, 1, 0, payload)
}

// A bytes-free noise packet is indistinguishable from the decoded real
// frame, for every traffic class and every size: the view matches field
// by field, the wire length agrees, and the lazily encoded bytes equal
// the real encoding, also when the frame was ECN-marked before or after
// its bytes were first read.
func TestNoisePacketMatchesEncoding(t *testing.T) {
	for c := pkt.TrafficClass(0); c < pkt.NumClasses; c++ {
		for size := 64; size <= pkt.MaxMTU; size++ {
			ref := refNoise(c, size)
			var want pkt.Frame
			if err := pkt.DecodeInto(&want, ref); err != nil {
				t.Fatalf("class %d size %d: reference does not decode: %v", c, size, err)
			}
			marked := append([]byte(nil), ref...)
			pkt.SetECNCE(marked)

			p := newNoisePacket(c, size)
			if p.Buf != nil {
				t.Fatalf("class %d size %d: noise packet carries bytes before any read", c, size)
			}
			if !reflect.DeepEqual(p.F, &want) {
				t.Fatalf("class %d size %d: view diverges from decoded frame:\nnoise %+v\nreal  %+v", c, size, p.F, &want)
			}
			if p.WireLen() != want.WireLen() || p.WireLen() != len(ref)+pkt.EthFCSLen {
				t.Fatalf("class %d size %d: WireLen %d, want %d", c, size, p.WireLen(), want.WireLen())
			}
			if !bytes.Equal(p.Bytes(), ref) {
				t.Fatalf("class %d size %d: lazy bytes differ from EncodeUDP", c, size)
			}
			// Mark after the bytes exist: Enqueue rewrites both.
			pkt.SetECNCE(p.Buf)
			p.F.ECN = pkt.ECNCE
			if !bytes.Equal(p.Bytes(), marked) {
				t.Fatalf("class %d size %d: marked bytes differ after an in-place mark", c, size)
			}
			p.Free()

			// Mark while bytes-free: the first read encodes the mark.
			q := newNoisePacket(c, size)
			pkt.SetECNCE(q.Buf)
			q.F.ECN = pkt.ECNCE
			if !bytes.Equal(q.Bytes(), marked) {
				t.Fatalf("class %d size %d: lazy bytes of a marked frame differ", c, size)
			}
			q.Free()
		}
	}
}

// TestParanoidRedecodeNoise runs background load under paranoid mode on
// a topology with L1 and L2 switches, at a load that makes ports
// ECN-mark noise frames. Every switch receiving a noise frame encodes its
// bytes-free view and checks it against the decoded bytes, so a template
// or marking divergence panics.
func TestParanoidRedecodeNoise(t *testing.T) {
	SetParanoid(true)
	defer SetParanoid(false)

	s := sim.New(11)
	dc := NewDatacenter(s, smallConfig())
	a, b := dc.Host(0), dc.Host(12) // cross-pod: both L1s and the L2
	got := 0
	b.RegisterUDP(7, func(*pkt.Frame) { got++ })
	dc.StartBackgroundLoad(0.95, pkt.ClassBestEffort, 700)
	const n = 50
	for i := 0; i < n; i++ {
		s.Schedule(sim.Time(i)*4*sim.Microsecond, func() {
			a.SendUDPRaw(b.IP(), 7, 7, pkt.ClassLTL, make([]byte, 512))
		})
	}
	s.RunFor(200 * sim.Microsecond)
	dc.StopBackgroundLoad()
	s.RunFor(sim.Millisecond)

	var marks, noRoute uint64
	for _, sw := range append(dc.L1Switches(), dc.L2()) {
		for i := 0; i < sw.NumPorts(); i++ {
			marks += sw.Port(i).Stats.ECNMarks.Value()
		}
	}
	for pod := 0; pod < 2; pod++ {
		for tor := 0; tor < 3; tor++ {
			noRoute += dc.TOR(pod, tor).Stats.NoRoute.Value()
		}
	}
	noRoute += dc.L2().Stats.NoRoute.Value()
	t.Logf("%d ECN marks; %d noise frames dropped at the next hop", marks, noRoute)
	if marks == 0 {
		t.Fatal("no noise frame was ECN-marked; the marked path went unchecked")
	}
	if noRoute == 0 {
		t.Fatal("no noise frame reached a switch")
	}
	if got != n {
		t.Fatalf("delivered %d/%d lossless frames over noise under paranoid mode", got, n)
	}
}

// TestNoiseInjectZeroAlloc pins steady-state background load to zero
// allocations: injection, queueing, serialization, propagation and the
// drop at the next hop all run on pooled packets and pooled events.
func TestNoiseInjectZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled packets at random under -race")
	}
	s := sim.New(3)
	dc := NewDatacenter(s, smallConfig())
	dc.Host(0)
	dc.Host(12)
	dc.StartBackgroundLoad(0.5, pkt.ClassBestEffort, 700)
	// Warm the packet pool, the event freelist, and the queue and wheel
	// bucket capacities, which grow until they have seen their peak.
	s.RunFor(20 * sim.Millisecond)
	before := dc.L2().Port(0).Stats.TxFrames.Value()
	allocs := testing.AllocsPerRun(50, func() { s.RunFor(20 * sim.Microsecond) })
	if dc.L2().Port(0).Stats.TxFrames.Value() == before {
		t.Fatal("no noise injected while measuring")
	}
	if allocs != 0 {
		t.Fatalf("steady-state noise injection allocates %.0f times per 20 µs, want 0", allocs)
	}
}
