package er

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// pinDigest folds one contended run into a single FNV-64a value: every
// delivery (time, receiving node, source, VC, length) in delivery order,
// then each router's FlitsSwitched, StallConflict, StallNoCredit, Cycles
// and per-VC flit counters, then the kernel's fired-event count.
type pinDigest struct {
	h         hash.Hash64
	delivered int
}

func newPinDigest() *pinDigest { return &pinDigest{h: fnv.New64a()} }

func (d *pinDigest) add(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

// observe hooks every terminal's deliveries into the digest.
func (d *pinDigest) observe(s *sim.Simulation, terms []*Terminal) {
	for _, t := range terms {
		node := t.Node
		t.OnMessage = func(m *Message) {
			d.delivered++
			d.add(uint64(s.Now()), uint64(node), uint64(m.SrcNode), uint64(m.VC), uint64(len(m.Payload)))
			FreeMessage(m)
		}
	}
}

// finish folds the routers' counters and the fired-event count, and
// reports how many messages were delivered.
func (d *pinDigest) finish(s *sim.Simulation, routers []*Router) (string, int) {
	for _, r := range routers {
		st := &r.Stats
		d.add(uint64(st.FlitsSwitched.Value()), uint64(st.StallConflict.Value()),
			uint64(st.StallNoCredit.Value()), uint64(st.Cycles.Value()))
		for v := range st.VCFlits {
			d.add(uint64(st.VCFlits[v].Value()))
		}
	}
	d.add(s.Fired())
	return fmt.Sprintf("%016x", d.h.Sum64()), d.delivered
}

// sendRandom schedules msgs seeded random sends: a random source and
// destination terminal (U-turns included), a random VC, 0–5 flits of payload,
// at random times inside a 3 µs window, so inputs, outputs and VCs all
// contend.
func sendRandom(s *sim.Simulation, terms []*Terminal, seed int64, msgs, flitBytes, vcs int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < msgs; i++ {
		src := terms[rng.Intn(len(terms))]
		dst := terms[rng.Intn(len(terms))].Node
		vc := rng.Intn(vcs)
		payload := make([]byte, rng.Intn(5*flitBytes+1))
		at := sim.Time(rng.Int63n(int64(3 * sim.Microsecond)))
		s.Schedule(at, func() { src.Send(dst, vc, payload) })
	}
}

// pinMsgs is the message count of every pinned run.
const pinMsgs = 400

// pinConfig is a 4-port, 3-VC router with a 6-flit input buffer: small
// enough that random traffic keeps every input and output contended.
func pinConfig(elastic bool) Config {
	cfg := DefaultConfig()
	cfg.VCs = 3
	cfg.BufFlits = 6
	cfg.Elastic = elastic
	return cfg
}

// runPinRouter drives seeded contended traffic through one router with a
// terminal on every port and returns the run's digest and delivered-message
// count.
func runPinRouter(elastic bool) (string, int) {
	s := sim.New(1)
	cfg := pinConfig(elastic)
	r := New(s, cfg)
	terms := make([]*Terminal, cfg.Ports)
	for p := range terms {
		terms[p] = NewTerminal(s, r, p, p, 2*cfg.VCs)
	}
	d := newPinDigest()
	d.observe(s, terms)
	sendRandom(s, terms, 7, pinMsgs, cfg.FlitBytes, cfg.VCs)
	s.RunFor(sim.Millisecond)
	return d.finish(s, []*Router{r})
}

// runPinMesh drives the same kind of traffic through a 2x2 mesh whose
// routers pick outputs with an XY Route function.
func runPinMesh() (string, int) {
	s := sim.New(1)
	base := pinConfig(true)
	routers, terms := buildMesh(s, 2, 2, base)
	d := newPinDigest()
	d.observe(s, terms)
	sendRandom(s, terms, 11, pinMsgs, base.FlitBytes, base.VCs)
	s.RunFor(sim.Millisecond)
	return d.finish(s, routers)
}

// TestContendedTrafficPinned pins the Elastic Router's complete behaviour
// under contention: the switch allocator may change how it finds its
// candidates, but not which flit wins, when it is delivered, or how many
// stalls it counts on the way.
func TestContendedTrafficPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() (string, int)
		want string
	}{
		{"elastic", func() (string, int) { return runPinRouter(true) }, "6d913ceaab7db58b"},
		{"static", func() (string, int) { return runPinRouter(false) }, "fe6248e1a6bc6119"},
		{"mesh2x2", runPinMesh, "c40967ae72555f66"},
	} {
		got, delivered := tc.run()
		if delivered != pinMsgs {
			t.Errorf("%s: delivered %d of %d messages", tc.name, delivered, pinMsgs)
		}
		if got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
