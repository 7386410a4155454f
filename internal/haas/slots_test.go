package haas

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// slotBed registers n slotted nodes with the given per-slot capacities.
// Reconfigurations take reconfig of virtual time; each node's slot
// contents are tracked in tenants[node][slot].
func slotBed(s *sim.Simulation, n int, caps []int, reconfig sim.Time) (*ResourceManager, map[NodeID]*bool, map[NodeID][]string) {
	healthy := map[NodeID]*bool{}
	tenants := map[NodeID][]string{}
	rm := NewResourceManager(s, RMConfig{HealthPollInterval: 10 * sim.Millisecond})
	for i := 0; i < n; i++ {
		id := NodeID(i)
		ok := true
		healthy[id] = &ok
		tenants[id] = make([]string, len(caps))
		rm.RegisterSlots(&SlotFM{
			FM:   &FPGAManager{Node: id, Healthy: func() bool { return *healthy[id] }},
			Caps: append([]int(nil), caps...),
			ConfigureSlot: func(slot int, tenant, image string, alms int, done func(ok bool)) (sim.Time, error) {
				alive := healthy[id]
				s.Schedule(reconfig, func() {
					if !*alive {
						done(false)
						return
					}
					tenants[id][slot] = tenant
					done(true)
				})
				return reconfig, nil
			},
			ClearSlot: func(slot int) error { tenants[id][slot] = ""; return nil },
		})
	}
	return rm, healthy, tenants
}

func TestSlotBinPacking(t *testing.T) {
	// Asymmetric boards: every node has a 60k and a 30k slot. Best-fit
	// must place small roles into small slots, keeping big slots free.
	cases := []struct {
		name     string
		requests []SlotRequest
		wantErr  []bool
		// wantAt[i] = expected (node, slot) list for request i.
		wantAt [][]slotRef
	}{
		{
			name: "small roles pack into small slots first",
			requests: []SlotRequest{
				{Tenant: "crypto", ALMs: 10000, Count: 2},
				{Tenant: "rank", ALMs: 44000, Count: 1},
			},
			wantErr: []bool{false, false},
			wantAt: [][]slotRef{
				{{0, 1}, {1, 1}}, // 30k slots, node order
				{{0, 0}},         // 60k slot still free on node 0
			},
		},
		{
			name: "distinct nodes spreads claims",
			requests: []SlotRequest{
				{Tenant: "kv", ALMs: 10000, Count: 3, DistinctNodes: true},
			},
			wantErr: []bool{false},
			wantAt:  [][]slotRef{{{0, 1}, {1, 1}, {2, 1}}},
		},
		{
			name: "no fit for an oversized role",
			requests: []SlotRequest{
				{Tenant: "huge", ALMs: 60001, Count: 1},
			},
			wantErr: []bool{true},
		},
		{
			name: "all-or-nothing on partial fit",
			requests: []SlotRequest{
				{Tenant: "rank", ALMs: 44000, Count: 4}, // only 3 60k slots exist
			},
			wantErr: []bool{true},
		},
		{
			name: "distinct-nodes fails when boards run out",
			requests: []SlotRequest{
				{Tenant: "kv", ALMs: 10000, Count: 4, DistinctNodes: true},
			},
			wantErr: []bool{true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			rm, _, _ := slotBed(s, 3, []int{60000, 30000}, sim.Millisecond)
			for i, req := range tc.requests {
				claims, err := rm.LeaseSlots(req)
				if (err != nil) != tc.wantErr[i] {
					t.Fatalf("request %d: err = %v, wantErr %v", i, err, tc.wantErr[i])
				}
				if err != nil {
					continue
				}
				for j, c := range claims {
					want := tc.wantAt[i][j]
					if c.Node != want.node || c.Slot != want.slot {
						t.Errorf("request %d claim %d at (%d,%d), want (%d,%d)",
							i, j, c.Node, c.Slot, want.node, want.slot)
					}
				}
			}
			rm.Stop()
		})
	}
}

func TestSlotLeaseLifecycle(t *testing.T) {
	s := sim.New(1)
	rm, _, tenants := slotBed(s, 2, []int{48000, 48000}, sim.Millisecond)
	ready := 0
	claims, err := rm.LeaseSlots(SlotRequest{
		Tenant: "dnn", Image: "dnn-v2", ALMs: 30000, Count: 3,
		OnReady: func(*SlotClaim) { ready++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if claims[0].Ready {
		t.Error("claim ready before reconfiguration")
	}
	s.RunFor(2 * sim.Millisecond)
	if ready != 3 {
		t.Fatalf("ready callbacks = %d, want 3", ready)
	}
	if tenants[0][0] != "dnn" || tenants[0][1] != "dnn" || tenants[1][0] != "dnn" {
		t.Fatalf("tenants = %v", tenants)
	}
	us, ts, ua, ta := rm.SlotPoolStats()
	if us != 3 || ts != 4 || ua != 90000 || ta != 192000 {
		t.Fatalf("pool stats = %d/%d slots, %d/%d alms", us, ts, ua, ta)
	}
	rm.ReleaseSlot(claims[1])
	if tenants[0][1] != "" {
		t.Error("released slot not cleared")
	}
	if us, _, _, _ := rm.SlotPoolStats(); us != 2 {
		t.Errorf("used slots after release = %d", us)
	}
	if got := rm.Slot.Granted.Value(); got != 3 {
		t.Errorf("granted = %d", got)
	}
	if got := rm.Slot.Released.Value(); got != 1 {
		t.Errorf("released = %d", got)
	}
	rm.Stop()
}

func TestSlotNodeDeathFailsClaimsAndRelease(t *testing.T) {
	s := sim.New(1)
	rm, healthy, _ := slotBed(s, 2, []int{48000, 48000}, sim.Millisecond)
	var failed []int
	claims, err := rm.LeaseSlots(SlotRequest{
		Tenant: "kv", ALMs: 20000, Count: 4,
		OnFailure: func(c *SlotClaim) { failed = append(failed, c.ID) },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * sim.Millisecond)
	*healthy[0] = false
	s.RunFor(20 * sim.Millisecond)
	if len(failed) != 2 {
		t.Fatalf("failed claims = %v, want the 2 on node 0", failed)
	}
	if got := rm.Slot.Failed.Value(); got != 2 {
		t.Errorf("slot.failed = %d", got)
	}
	// Survivors re-lease onto the live board? No free slots left there —
	// the request must reject without spares.
	if _, err := rm.LeaseSlots(SlotRequest{Tenant: "kv", ALMs: 20000, Count: 1}); err == nil {
		t.Error("lease granted with every live slot claimed")
	}
	for _, c := range claims[2:] {
		rm.ReleaseSlot(c)
	}
	if us, ts, _, _ := rm.SlotPoolStats(); us != 0 || ts != 2 {
		t.Errorf("pool stats after death+release = %d/%d", us, ts)
	}
	rm.Stop()
}

func TestSlotKillTenantMidReconfig(t *testing.T) {
	// A board that dies while programming a tenant's slot must fail the
	// claim exactly once (via the health poll), never report it ready,
	// and leave the pool consistent for re-leasing elsewhere.
	s := sim.New(1)
	rm, healthy, tenants := slotBed(s, 2, []int{48000}, 20*sim.Millisecond)
	ready, failed := 0, 0
	claims, err := rm.LeaseSlots(SlotRequest{
		Tenant: "dnn", ALMs: 30000, Count: 1,
		OnReady:   func(*SlotClaim) { ready++ },
		OnFailure: func(*SlotClaim) { failed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the board mid-program (reconfig takes 20ms; poll is 10ms).
	s.Schedule(5*sim.Millisecond, func() { *healthy[claims[0].Node] = false })
	s.RunFor(50 * sim.Millisecond)
	if ready != 0 {
		t.Errorf("ready fired %d times on a dead board", ready)
	}
	if failed != 1 {
		t.Fatalf("failure callbacks = %d, want 1", failed)
	}
	if claims[0].Ready {
		t.Error("claim marked ready after death")
	}
	if tenants[claims[0].Node][0] == "dnn" {
		t.Error("dead board reports tenant loaded")
	}
	// The lessee re-leases: the surviving board takes the role.
	c2, err := rm.LeaseSlots(SlotRequest{Tenant: "dnn", ALMs: 30000, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c2[0].Node == claims[0].Node {
		t.Error("re-lease landed on the dead board")
	}
	s.RunFor(30 * sim.Millisecond)
	if !c2[0].Ready {
		t.Error("re-leased claim never became ready")
	}
	rm.Stop()
}

func TestDefragmentDrainsSparseBoards(t *testing.T) {
	s := sim.New(1)
	rm, _, tenants := slotBed(s, 3, []int{48000, 48000}, sim.Millisecond)
	// Fill all six slots, then release every second claim: churn leaves
	// one tenant stranded per board. Defrag should drain the
	// least-loaded board onto a fuller one by live reconfig.
	var all, churn []*SlotClaim
	var ready []string // every claim's (node, slot) each time it serves
	for i, alms := range []int{40000, 30000, 10000} {
		for j, alloc := range []int{alms, 20000} {
			c, err := rm.LeaseSlots(SlotRequest{
				Tenant: fmt.Sprintf("t%d", i), ALMs: alloc, Count: 1,
				OnReady: func(c *SlotClaim) {
					ready = append(ready, fmt.Sprintf("%s@%d.%d", c.Tenant, c.Node, c.Slot))
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if j == 0 {
				all = append(all, c...)
			} else {
				churn = append(churn, c...)
			}
		}
	}
	s.RunFor(2 * sim.Millisecond)
	for _, c := range churn {
		rm.ReleaseSlot(c)
	}
	if got := rm.SlotBoardsInUse(); got != 3 {
		t.Fatalf("boards in use = %d before defrag", got)
	}
	started := rm.Defragment()
	if started == 0 {
		t.Fatal("defrag found no moves in a drainable pool")
	}
	s.RunFor(5 * sim.Millisecond)
	if got := rm.SlotBoardsInUse(); got >= 3 {
		t.Errorf("boards in use = %d after defrag, want < 3 (ready: %v)", got, ready)
	}
	if got := int(rm.Slot.DefragMoves.Value()); got != started {
		t.Errorf("defrag_moves = %d, started %d", got, started)
	}
	// Tenants kept serving through the move: every claim still loaded
	// somewhere, exactly once.
	for _, c := range all {
		if !c.Ready {
			t.Errorf("claim %s not ready after defrag", c.Tenant)
		}
		if tenants[c.Node][c.Slot] != c.Tenant {
			t.Errorf("claim %s not loaded at its reported (%d,%d)", c.Tenant, c.Node, c.Slot)
		}
	}
	// A second pass on the compacted pool must be a no-op (termination).
	if again := rm.Defragment(); again != 0 {
		t.Errorf("second defrag pass started %d moves", again)
	}
	rm.Stop()
}

func TestDefragNoOpWhenDense(t *testing.T) {
	s := sim.New(1)
	rm, _, _ := slotBed(s, 2, []int{48000, 48000}, sim.Millisecond)
	if _, err := rm.LeaseSlots(SlotRequest{Tenant: "t", ALMs: 40000, Count: 4}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(2 * sim.Millisecond)
	if moves := rm.Defragment(); moves != 0 {
		t.Errorf("defrag moved %d claims in a full pool", moves)
	}
	rm.Stop()
}

func TestSlottedNodesInvisibleToWholeNodeLease(t *testing.T) {
	s := sim.New(1)
	rm, _, _ := slotBed(s, 2, []int{48000, 48000}, sim.Millisecond)
	if rm.FreeCount() != 0 {
		t.Errorf("FreeCount = %d, slotted boards must not count as whole nodes", rm.FreeCount())
	}
	if _, err := rm.Lease("svc", "img", Constraints{Count: 1}, nil); err == nil {
		t.Error("whole-node lease granted from a purely slotted pool")
	}
	rm.Stop()
}
