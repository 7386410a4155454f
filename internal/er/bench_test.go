package er

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkERMessage switches one 256-byte (8-flit) message per op from
// the Role port to the Remote port of the default 4-port router. The
// receiver frees each message, as the shell's handlers do, so the
// steady state allocates nothing.
func BenchmarkERMessage(b *testing.B) {
	benchMessages(b, PortRole)
}

// BenchmarkERMessageContended sends one 256-byte message per op from each
// of three inputs (PCIe, Role, DRAM) into the Remote output, so every
// cycle arbitrates among three occupied input VCs.
func BenchmarkERMessageContended(b *testing.B) {
	benchMessages(b, PortPCIe, PortRole, PortDRAM)
}

// benchMessages sends one message from each src port to PortRemote per op
// and reports ns per switched flit.
func benchMessages(b *testing.B, srcs ...int) {
	s := sim.New(1)
	cfg := DefaultConfig()
	r, terms := buildRouter(s, cfg)
	n := 0
	terms[PortRemote].OnMessage = func(m *Message) {
		n++
		FreeMessage(m)
	}
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range srcs {
			terms[p].Send(PortRemote, 0, payload)
		}
		s.RunFor(sim.Microsecond)
	}
	b.StopTimer()
	if n != b.N*len(srcs) {
		b.Fatalf("delivered %d of %d messages", n, b.N*len(srcs))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(r.Stats.FlitsSwitched.Value()), "ns/flit")
}
