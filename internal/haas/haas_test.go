package haas

import (
	"testing"

	"repro/internal/sim"
)

// testbed registers n nodes whose health and configured image are
// tracked in the returned maps.
func testbed(s *sim.Simulation, n int) (*ResourceManager, map[NodeID]*bool, map[NodeID]string) {
	healthy := map[NodeID]*bool{}
	images := map[NodeID]string{}
	rm := NewResourceManager(s, RMConfig{
		HealthPollInterval: 10 * sim.Millisecond,
	})
	for i := 0; i < n; i++ {
		id := NodeID(i)
		ok := true
		healthy[id] = &ok
		rm.Register(&FPGAManager{
			Node:      id,
			Configure: func(img string) { images[id] = img },
			Healthy:   func() bool { return *healthy[id] },
		})
	}
	return rm, healthy, images
}

func TestLeaseAndRelease(t *testing.T) {
	s := sim.New(1)
	rm, _, images := testbed(s, 8)
	comp, err := rm.Lease("svcA", "dnn-v1", Constraints{Count: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Nodes) != 3 {
		t.Fatalf("component size %d", len(comp.Nodes))
	}
	if rm.FreeCount() != 5 {
		t.Fatalf("free = %d, want 5", rm.FreeCount())
	}
	for _, id := range comp.Nodes {
		if images[id] != "dnn-v1" {
			t.Errorf("node %d not configured", id)
		}
		if rm.NodeStateOf(id) != NodeLeased {
			t.Errorf("node %d state %v", id, rm.NodeStateOf(id))
		}
	}
	rm.Release(comp.LeaseID)
	if rm.FreeCount() != 8 {
		t.Fatalf("free after release = %d", rm.FreeCount())
	}
	rm.Stop()
}

func TestLeaseInsufficientResources(t *testing.T) {
	s := sim.New(1)
	rm, _, _ := testbed(s, 4)
	if _, err := rm.Lease("big", "x", Constraints{Count: 5}, nil); err == nil {
		t.Fatal("oversized lease granted")
	}
	if rm.Rejected.Value() != 1 {
		t.Error("rejection not counted")
	}
	rm.Stop()
}

func TestTwoServicesShareThePool(t *testing.T) {
	// Fig. 13: "Two HaaS-enabled hardware accelerators are shown running
	// under HaaS. FPGAs are allocated to each service from the Resource
	// Manager's resource pool."
	s := sim.New(1)
	rm, _, images := testbed(s, 12)
	a, err := rm.Lease("svcA", "rank-v2", Constraints{Count: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rm.Lease("svcB", "dnn-v1", Constraints{Count: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[NodeID]bool{}
	for _, id := range a.Nodes {
		seen[id] = true
	}
	for _, id := range b.Nodes {
		if seen[id] {
			t.Fatalf("node %d double-leased", id)
		}
	}
	if images[a.Nodes[0]] != "rank-v2" || images[b.Nodes[0]] != "dnn-v1" {
		t.Error("services got wrong images")
	}
	if rm.FreeCount() != 4 {
		t.Errorf("unallocated pool = %d, want 4", rm.FreeCount())
	}
	rm.Stop()
}

func TestFailureDetectionAndNotification(t *testing.T) {
	s := sim.New(1)
	rm, healthy, _ := testbed(s, 6)
	var failed []NodeID
	comp, err := rm.Lease("svc", "x", Constraints{Count: 3},
		func(id NodeID) { failed = append(failed, id) })
	if err != nil {
		t.Fatal(err)
	}
	victim := comp.Nodes[1]
	*healthy[victim] = false
	s.RunFor(50 * sim.Millisecond)
	if len(failed) != 1 || failed[0] != victim {
		t.Fatalf("failure notification: %v", failed)
	}
	if rm.NodeStateOf(victim) != NodeDead {
		t.Error("victim not marked dead")
	}
	if rm.Failures.Value() != 1 {
		t.Error("failure not counted")
	}
	rm.Stop()
}

func TestReplaceNode(t *testing.T) {
	s := sim.New(1)
	rm, _, images := testbed(s, 6)
	comp, _ := rm.Lease("svc", "img", Constraints{Count: 2}, nil)
	dead := comp.Nodes[0]
	repl, err := rm.ReplaceNode(comp.LeaseID, dead, "img")
	if err != nil {
		t.Fatal(err)
	}
	if repl == dead {
		t.Fatal("replacement is the dead node")
	}
	if images[repl] != "img" {
		t.Error("replacement not configured")
	}
	found := false
	for _, id := range comp.Nodes {
		if id == repl {
			found = true
		}
		if id == dead {
			t.Error("dead node still in component")
		}
	}
	if !found {
		t.Error("replacement not in component")
	}
	rm.Stop()
}

func TestServiceManagerLifecycle(t *testing.T) {
	s := sim.New(1)
	rm, healthy, _ := testbed(s, 8)
	sm := NewServiceManager(s, rm, "ranker", "rank-v1")
	if err := sm.Scale(4, Constraints{}); err != nil {
		t.Fatal(err)
	}
	if len(sm.Members()) != 4 {
		t.Fatalf("members = %d", len(sm.Members()))
	}
	// Round-robin covers all members.
	seen := map[NodeID]int{}
	for i := 0; i < 8; i++ {
		id, ok := sm.Pick()
		if !ok {
			t.Fatal("Pick failed")
		}
		seen[id]++
	}
	if len(seen) != 4 {
		t.Fatalf("round robin visited %d members, want 4", len(seen))
	}
	for id, n := range seen {
		if n != 2 {
			t.Errorf("member %d picked %d times, want 2", id, n)
		}
	}

	// Kill a member: the SM must self-heal via replacement.
	victim := sm.Members()[0]
	*healthy[victim] = false
	s.RunFor(100 * sim.Millisecond)
	if sm.Repaired.Value() != 1 {
		t.Fatal("SM did not repair the failed member")
	}
	for _, id := range sm.Members() {
		if id == victim {
			t.Fatal("dead member still serving")
		}
	}
	// Grow then shrink ("a global manager grows or shrinks the pools").
	if err := sm.Scale(6, Constraints{}); err != nil {
		t.Fatal(err)
	}
	if len(sm.Members()) != 6 {
		t.Fatal("grow failed")
	}
	sm.Release()
	if rm.FreeCount() != 7 { // 8 minus the dead one
		t.Fatalf("free after release = %d, want 7", rm.FreeCount())
	}
	rm.Stop()
}

func TestPickOnEmptyService(t *testing.T) {
	s := sim.New(1)
	rm, _, _ := testbed(s, 2)
	sm := NewServiceManager(s, rm, "empty", "x")
	if _, ok := sm.Pick(); ok {
		t.Fatal("Pick succeeded with no component")
	}
	rm.Stop()
}

func TestInvalidLeaseCount(t *testing.T) {
	s := sim.New(1)
	rm, _, _ := testbed(s, 2)
	if _, err := rm.Lease("z", "x", Constraints{Count: 0}, nil); err == nil {
		t.Fatal("zero-count lease granted")
	}
	rm.Stop()
}
