package er

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// Build a W x H 2-D mesh of routers with XY dimension-order routing —
// "multiple ERs can be composed to form a larger on-chip network
// topology, e.g., a ring or a 2-D mesh."
//
// Port plan per router: 0 = local terminal, 1 = east, 2 = west,
// 3 = north, 4 = south. Node id = y*W + x.
func buildMesh(s *sim.Simulation, w, h int, base Config) ([]*Router, []*Terminal) {
	routers := make([]*Router, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			x, y := x, y
			cfg := base
			cfg.Name = fmt.Sprintf("mesh-%d-%d", x, y)
			cfg.Ports = 5
			cfg.Route = func(dst int) int {
				dx, dy := dst%w, dst/w
				switch {
				case dx > x:
					return 1 // east
				case dx < x:
					return 2 // west
				case dy > y:
					return 4 // south
				case dy < y:
					return 3 // north
				default:
					return 0 // local
				}
			}
			routers[y*w+x] = New(s, cfg)
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				Connect(routers[y*w+x], 1, routers[y*w+x+1], 2)
			}
			if y+1 < h {
				Connect(routers[y*w+x], 4, routers[(y+1)*w+x], 3)
			}
		}
	}
	terms := make([]*Terminal, w*h)
	for i := range routers {
		terms[i] = NewTerminal(s, routers[i], 0, i, 16)
	}
	return routers, terms
}

func TestMeshAllPairs(t *testing.T) {
	s := sim.New(1)
	const w, h = 3, 3
	_, terms := buildMesh(s, w, h, DefaultConfig())
	type rx struct{ src, dst int }
	got := map[rx][]byte{}
	for i := range terms {
		i := i
		terms[i].OnMessage = func(m *Message) {
			got[rx{m.SrcNode, i}] = append([]byte(nil), m.Payload...)
		}
	}
	for src := 0; src < w*h; src++ {
		for dst := 0; dst < w*h; dst++ {
			terms[src].Send(dst, (src+dst)%2, []byte(fmt.Sprintf("%d->%d", src, dst)))
		}
	}
	s.RunFor(10 * sim.Millisecond)
	for src := 0; src < w*h; src++ {
		for dst := 0; dst < w*h; dst++ {
			want := fmt.Sprintf("%d->%d", src, dst)
			if string(got[rx{src, dst}]) != want {
				t.Fatalf("pair %d->%d: %q", src, dst, got[rx{src, dst}])
			}
		}
	}
}

func TestMeshLatencyGrowsWithHops(t *testing.T) {
	s := sim.New(1)
	const w, h = 4, 1 // a line: hop count is just |dx|
	_, terms := buildMesh(s, w, h, DefaultConfig())
	payload := make([]byte, 4*32)
	var times []sim.Time
	for d := 1; d < w; d++ {
		d := d
		var at sim.Time
		terms[d].OnMessage = func(m *Message) { at = s.Now() }
		start := s.Now()
		terms[0].Send(d, 0, payload)
		s.RunFor(sim.Millisecond)
		times = append(times, at-start)
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("latency not increasing with distance: %v", times)
		}
	}
}

func TestMeshCornerToCornerBulk(t *testing.T) {
	// Bulk transfer across the mesh diagonal: all flits arrive, in
	// order, uncorrupted, with credits drained back to zero occupancy.
	s := sim.New(1)
	const w, h = 3, 3
	routers, terms := buildMesh(s, w, h, DefaultConfig())
	var msgs [][]byte
	terms[w*h-1].OnMessage = func(m *Message) {
		msgs = append(msgs, append([]byte(nil), m.Payload...))
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 96)
		want = append(want, p)
		terms[0].Send(w*h-1, 0, p)
	}
	s.RunFor(50 * sim.Millisecond)
	if len(msgs) != len(want) {
		t.Fatalf("delivered %d/%d", len(msgs), len(want))
	}
	for i := range want {
		if !bytes.Equal(msgs[i], want[i]) {
			t.Fatalf("message %d corrupted or reordered", i)
		}
	}
	for _, r := range routers {
		if r.Stats.BufOccupancy.Value() != 0 {
			t.Fatalf("router %s retains flits", r.Config().Name)
		}
	}
}
