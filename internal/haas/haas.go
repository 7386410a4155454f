// Package haas implements the Hardware-as-a-Service platform of §V-F
// (Fig. 13): a logically centralized Resource Manager (RM) tracks FPGA
// resources across the datacenter and leases them to Service Managers
// (SM) as Components — instances of a hardware service made up of one or
// more FPGAs plus placement constraints. An FPGA Manager (FM) on each
// node handles configuration and status monitoring. SMs handle
// service-level tasks: load balancing, inter-component connectivity, and
// failure handling by requesting and releasing leases.
package haas

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// NodeID identifies one FPGA-bearing server.
type NodeID int

// NodeState is the RM's view of a node.
type NodeState int

// Node states.
const (
	NodeFree NodeState = iota
	NodeLeased
	NodeDead
)

// String names the state.
func (s NodeState) String() string {
	switch s {
	case NodeFree:
		return "free"
	case NodeLeased:
		return "leased"
	default:
		return "dead"
	}
}

// Constraints restrict Component placement.
type Constraints struct {
	// Count is the number of FPGAs in the component.
	Count int
}

// Component is a leased hardware-service instance.
type Component struct {
	LeaseID int
	Nodes   []NodeID
	Owner   string // service name
}

// FPGAManager is the per-node agent: it configures the node's shell and
// reports health. The concrete shell wiring is injected so haas stays
// independent of the data plane.
type FPGAManager struct {
	Node NodeID
	// Configure loads a role image (invoked on lease grant).
	Configure func(image string)
	// Healthy reports node liveness (polled by the RM).
	Healthy func() bool
}

// RMConfig parameterizes the Resource Manager.
type RMConfig struct {
	// HealthPollInterval is the FM status-poll period.
	HealthPollInterval sim.Time
}

// ResourceManager tracks the global FPGA pool and grants leases.
type ResourceManager struct {
	sim *sim.Simulation
	cfg RMConfig

	nodes  map[NodeID]*nodeEntry
	leases map[int]*Component
	nextID int

	// onFailure callbacks per lease (SM failure notification).
	onFailure map[int]func(NodeID)

	Granted   metrics.Counter
	Released  metrics.Counter
	Failures  metrics.Counter
	Rejected  metrics.Counter
	Replaced  metrics.Counter
	poll      *sim.Ticker
	stopped   bool
	leaseByNd map[NodeID]int

	// Slot scheduling state (slots.go). slotClaims is nil until the
	// first RegisterSlots, which also registers the Slot metrics.
	slotClaims map[int]*SlotClaim
	Slot       SlotMetrics

	// tracer is cached at construction (nil when observability is off);
	// leaseSpans holds each live lease's open "haas.lease" span.
	tracer     *obs.Tracer
	leaseSpans map[int]obs.SpanID
}

type nodeEntry struct {
	id    NodeID
	state NodeState
	fm    *FPGAManager
	// slots is non-nil for a slotted node (RegisterSlots): the node is
	// scheduled per vFPGA slot and never granted as a whole board.
	slots *slotState
}

// NewResourceManager builds an RM and starts its health poll.
func NewResourceManager(s *sim.Simulation, cfg RMConfig) *ResourceManager {
	if cfg.HealthPollInterval <= 0 {
		cfg.HealthPollInterval = 100 * sim.Millisecond
	}
	rm := &ResourceManager{
		sim: s, cfg: cfg,
		nodes:     make(map[NodeID]*nodeEntry),
		leases:    make(map[int]*Component),
		onFailure: make(map[int]func(NodeID)),
		leaseByNd: make(map[NodeID]int),
		tracer:    obs.TracerOf(s),
	}
	if rm.tracer != nil {
		rm.leaseSpans = make(map[int]obs.SpanID)
	}
	if r := obs.RegistryOf(s); r != nil {
		r.Counter("haas.granted", "leases", "haas", "component leases granted", &rm.Granted)
		r.Counter("haas.released", "leases", "haas", "component leases released", &rm.Released)
		r.Counter("haas.failures", "nodes", "haas", "nodes marked dead by health polling", &rm.Failures)
		r.Counter("haas.rejected", "leases", "haas", "lease requests denied (pool exhausted)", &rm.Rejected)
		r.Counter("haas.replaced", "nodes", "haas", "failed lease members swapped for spares", &rm.Replaced)
	}
	rm.poll = s.Every(cfg.HealthPollInterval, cfg.HealthPollInterval, rm.pollHealth)
	return rm
}

// Stop halts the health poll.
func (rm *ResourceManager) Stop() { rm.poll.Stop() }

// Register adds a node (with its FM) to the global pool.
func (rm *ResourceManager) Register(fm *FPGAManager) {
	rm.nodes[fm.Node] = &nodeEntry{id: fm.Node, state: NodeFree, fm: fm}
}

// FreeCount reports unleased, healthy whole-board nodes (slotted nodes
// are accounted per slot; see SlotPoolStats).
func (rm *ResourceManager) FreeCount() int {
	n := 0
	for _, e := range rm.nodes {
		if e.state == NodeFree && e.slots == nil {
			n++
		}
	}
	return n
}

// NodeStateOf reports the RM's view of a node.
func (rm *ResourceManager) NodeStateOf(id NodeID) NodeState {
	if e, ok := rm.nodes[id]; ok {
		return e.state
	}
	return NodeDead
}

// Lease grants a Component satisfying the constraints, configuring each
// member's FPGA via its FM. onFailure (optional) notifies the lessee of
// member failures.
func (rm *ResourceManager) Lease(owner, image string, c Constraints, onFailure func(NodeID)) (*Component, error) {
	if c.Count <= 0 {
		return nil, fmt.Errorf("haas: component count must be positive")
	}
	candidates := rm.freeNodes()
	if len(candidates) < c.Count {
		rm.Rejected.Inc()
		if rm.tracer != nil {
			rm.tracer.Event(obs.LeaseFlow(uint64(rm.nextID)), "haas.reject", 0, int64(c.Count))
		}
		return nil, fmt.Errorf("haas: insufficient free FPGAs for %q: need %d, have %d",
			owner, c.Count, len(candidates))
	}
	comp := &Component{LeaseID: rm.nextID, Owner: owner, Nodes: candidates[:c.Count]}
	rm.nextID++
	for _, id := range comp.Nodes {
		e := rm.nodes[id]
		e.state = NodeLeased
		rm.leaseByNd[id] = comp.LeaseID
		if e.fm.Configure != nil {
			e.fm.Configure(image)
		}
	}
	rm.leases[comp.LeaseID] = comp
	if onFailure != nil {
		rm.onFailure[comp.LeaseID] = onFailure
	}
	rm.Granted.Inc()
	if rm.tracer != nil {
		id := rm.tracer.Start(obs.LeaseFlow(uint64(comp.LeaseID)), "haas.lease", 0)
		rm.tracer.SetArg(id, int64(len(comp.Nodes)))
		rm.leaseSpans[comp.LeaseID] = id
	}
	return comp, nil
}

// freeNodes lists the free whole-board nodes in ascending ID order.
func (rm *ResourceManager) freeNodes() []NodeID {
	var ids []NodeID
	for _, e := range rm.nodes {
		if e.state == NodeFree && e.slots == nil {
			ids = append(ids, e.id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Release returns a component's nodes to the pool.
func (rm *ResourceManager) Release(leaseID int) {
	comp, ok := rm.leases[leaseID]
	if !ok {
		return
	}
	for _, id := range comp.Nodes {
		if e, ok := rm.nodes[id]; ok && e.state == NodeLeased {
			e.state = NodeFree
		}
		delete(rm.leaseByNd, id)
	}
	delete(rm.leases, leaseID)
	delete(rm.onFailure, leaseID)
	rm.Released.Inc()
	if rm.leaseSpans != nil {
		if id, ok := rm.leaseSpans[leaseID]; ok {
			delete(rm.leaseSpans, leaseID)
			rm.tracer.End(id)
		}
	}
}

// ReplaceNode swaps a failed member of a lease for a fresh node ("Failing
// nodes are removed from the pool with replacements quickly added").
func (rm *ResourceManager) ReplaceNode(leaseID int, failed NodeID, image string) (NodeID, error) {
	comp, ok := rm.leases[leaseID]
	if !ok {
		return 0, fmt.Errorf("haas: unknown lease %d", leaseID)
	}
	candidates := rm.freeNodes()
	if len(candidates) == 0 {
		return 0, fmt.Errorf("haas: no spare FPGAs")
	}
	repl := candidates[0]
	for i, id := range comp.Nodes {
		if id == failed {
			comp.Nodes[i] = repl
			e := rm.nodes[repl]
			e.state = NodeLeased
			rm.leaseByNd[repl] = leaseID
			delete(rm.leaseByNd, failed)
			if e.fm.Configure != nil {
				e.fm.Configure(image)
			}
			rm.Replaced.Inc()
			if rm.tracer != nil {
				rm.tracer.Event(obs.LeaseFlow(uint64(leaseID)), "haas.replace", rm.leaseSpans[leaseID], int64(repl))
			}
			return repl, nil
		}
	}
	return 0, fmt.Errorf("haas: node %d not in lease %d", failed, leaseID)
}

// pollHealth marks dead nodes and notifies lessees (in node order, so
// multi-failure handling is deterministic).
func (rm *ResourceManager) pollHealth() {
	ids := make([]NodeID, 0, len(rm.nodes))
	for id := range rm.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e := rm.nodes[id]
		if e.state == NodeDead || e.fm.Healthy == nil || e.fm.Healthy() {
			continue
		}
		e.state = NodeDead
		rm.Failures.Inc()
		if e.slots != nil {
			rm.failSlottedNode(e)
		}
		if rm.tracer != nil {
			var parent obs.SpanID
			var flow obs.FlowID
			if leaseID, ok := rm.leaseByNd[e.id]; ok {
				parent = rm.leaseSpans[leaseID]
				flow = obs.LeaseFlow(uint64(leaseID))
			}
			rm.tracer.Event(flow, "haas.node_dead", parent, int64(e.id))
		}
		if leaseID, ok := rm.leaseByNd[e.id]; ok {
			if fn := rm.onFailure[leaseID]; fn != nil {
				fn(e.id)
			}
		}
	}
}

// ServiceManager administers one hardware service: it maintains a desired
// number of FPGAs via leases, replaces failed members, and load-balances
// callers across members.
type ServiceManager struct {
	Name  string
	rm    *ResourceManager
	sim   *sim.Simulation
	image string

	comp *Component
	rr   int

	Repaired metrics.Counter
}

// NewServiceManager creates an SM (no resources yet; call Scale).
func NewServiceManager(s *sim.Simulation, rm *ResourceManager, name, image string) *ServiceManager {
	return &ServiceManager{Name: name, rm: rm, sim: s, image: image}
}

// Scale acquires (or re-acquires) a component of n FPGAs.
func (sm *ServiceManager) Scale(n int, c Constraints) error {
	if sm.comp != nil {
		sm.rm.Release(sm.comp.LeaseID)
		sm.comp = nil
	}
	c.Count = n
	comp, err := sm.rm.Lease(sm.Name, sm.image, c, sm.onMemberFailure)
	if err != nil {
		return err
	}
	sm.comp = comp
	return nil
}

// Release gives all resources back.
func (sm *ServiceManager) Release() {
	if sm.comp != nil {
		sm.rm.Release(sm.comp.LeaseID)
		sm.comp = nil
	}
}

// Members returns the current component's nodes.
func (sm *ServiceManager) Members() []NodeID {
	if sm.comp == nil {
		return nil
	}
	return append([]NodeID(nil), sm.comp.Nodes...)
}

// Pick load-balances: returns the next member round-robin.
func (sm *ServiceManager) Pick() (NodeID, bool) {
	if sm.comp == nil || len(sm.comp.Nodes) == 0 {
		return 0, false
	}
	id := sm.comp.Nodes[sm.rr%len(sm.comp.Nodes)]
	sm.rr++
	return id, true
}

// onMemberFailure replaces a dead member with a spare.
func (sm *ServiceManager) onMemberFailure(dead NodeID) {
	if sm.comp == nil {
		return
	}
	if _, err := sm.rm.ReplaceNode(sm.comp.LeaseID, dead, sm.image); err == nil {
		sm.Repaired.Inc()
	}
}
