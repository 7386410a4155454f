// Package shell models the FPGA shell of Fig. 4: the common I/O and
// board-specific logic that hosts an application Role. The shell owns the
// two 40GbE MACs and sits as a bump-in-the-wire between the server's NIC
// and the TOR switch, bridging all traffic while exposing:
//
//   - a network tap for roles to inspect, alter, inject, or consume
//     passing traffic (used by the crypto offload of §IV),
//   - the LTL protocol engine for direct FPGA-to-FPGA messaging,
//   - an Elastic Router connecting Role, PCIe DMA, DRAM, and LTL,
//   - full/partial reconfiguration semantics (full reconfig briefly drops
//     the link; partial keeps packets flowing),
//   - configuration-scrubbing and SEU recovery (§II-B), and
//   - hop-by-hop PFC participation on both links.
package shell

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/dram"
	"repro/internal/er"
	"repro/internal/ltl"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Direction of traffic through the bridge.
type Direction int

// Bridge directions.
const (
	HostToNet Direction = iota // NIC -> TOR (egress)
	NetToHost                  // TOR -> NIC (ingress)
)

// String names the direction.
func (d Direction) String() string {
	if d == HostToNet {
		return "host->net"
	}
	return "net->host"
}

// Tap is role logic on the bridge datapath. Process may return buf
// unchanged (pass), a re-encoded frame (transform — e.g. encrypt), or nil
// to consume the frame. The returned delay is added to the frame's bridge
// traversal, modeling the tap's hardware pipeline latency (e.g. the
// 11 µs AES-CBC-SHA1 pipeline of §IV).
type Tap interface {
	Process(dir Direction, buf []byte, f *pkt.Frame) (out []byte, delay sim.Time)
}

// RequestSource identifies where a role request came from.
type RequestSource int

// Request sources.
const (
	FromPCIe RequestSource = iota // local host via DMA
	FromLTL                       // remote FPGA via the network
)

// Role is application logic loaded into the shell's role slot.
type Role interface {
	Name() string
	// HandleRequest processes one request and must eventually call
	// respond exactly once (asynchronously via the simulation is fine).
	HandleRequest(src RequestSource, payload []byte, respond func([]byte))
}

// Config parameterizes a shell instance.
type Config struct {
	// BridgeLatency is the store-and-forward latency of the bridge/bypass
	// pipeline (dominated by the 40G MAC/PHY pair).
	BridgeLatency sim.Time
	// PCIeLatency is the one-way DMA latency between host software and
	// the role.
	PCIeLatency sim.Time
	// PCIeBps is the DMA bandwidth (one PCIe Gen3 x8 direction).
	PCIeBps int64
	// ScrubInterval is the configuration-scrubbing period ("roughly every
	// 30 seconds").
	ScrubInterval sim.Time
	// FullReconfigTime is the link-down window of a full reconfiguration.
	FullReconfigTime sim.Time
	// PartialReconfigTime reconfigures the role slot with the bridge up.
	PartialReconfigTime sim.Time
	// PFCXoffBytes/PFCXonBytes govern shell-generated PFC when an egress
	// side backs up with lossless traffic.
	PFCXoffBytes int
	PFCXonBytes  int
	// NoLTL deploys the shell variant without the LTL block — "services
	// using only their single local FPGA can choose to deploy a shell
	// version without the LTL block" (§V-B) — reclaiming its area for the
	// role. Engine is nil; remote APIs error.
	NoLTL bool
	// Slots partitions the role region into vFPGA slots for
	// multi-tenancy (slots.go). Count < 2 keeps the single-role shell.
	Slots SlotConfig

	LTL ltl.Config
	ER  er.Config
}

// DefaultConfig returns production-like shell parameters.
func DefaultConfig() Config {
	return Config{
		BridgeLatency:       270 * sim.Nanosecond,
		PCIeLatency:         900 * sim.Nanosecond,
		PCIeBps:             64e9, // 8 GB/s per direction per x8 link
		ScrubInterval:       30 * sim.Second,
		FullReconfigTime:    200 * sim.Millisecond,
		PartialReconfigTime: 20 * sim.Millisecond,
		PFCXoffBytes:        96 << 10,
		PFCXonBytes:         48 << 10,
		LTL:                 ltl.DefaultConfig(),
		ER:                  er.DefaultConfig(),
	}
}

// Stats aggregates shell counters.
type Stats struct {
	Bridged      metrics.Counter // frames passed NIC<->TOR
	Tapped       metrics.Counter // frames transformed by a tap
	Consumed     metrics.Counter // frames consumed by a tap
	LTLConsumed  metrics.Counter // LTL frames terminated here
	DroppedDown  metrics.Counter // frames lost while the bridge was down
	SEUs         metrics.Counter
	ScrubPasses  metrics.Counter
	ScrubRepairs metrics.Counter
	RoleHangs    metrics.Counter
	Reconfigs    metrics.Counter
	PCIeReqs     metrics.Counter
	RemoteReqs   metrics.Counter
	DgramsSent   metrics.Counter // role->remote service datagrams (service plane)
	DgramsRecv   metrics.Counter // remote->role service datagrams delivered
}

// Shell is one FPGA's shell instance. It implements netsim.Interposer and
// ltl.Wire.
type Shell struct {
	cfg    Config
	sim    *sim.Simulation
	hostID int
	ip     pkt.IP
	mac    pkt.MAC

	hostPort *netsim.Port // faces the NIC
	netPort  *netsim.Port // faces the TOR

	// Engine is the shell's LTL protocol engine.
	Engine *ltl.Engine
	// Router is the on-chip Elastic Router.
	Router *er.Router
	// DRAM is the board's DDR3 channel, reachable by the role through the
	// ER's DRAM port.
	DRAM *dram.Controller

	termPCIe   *er.Terminal
	termRole   *er.Terminal
	termDRAM   *er.Terminal
	termRemote *er.Terminal

	role     Role
	roleUp   bool
	roleHung bool
	taps     []Tap

	bridgeUp     bool
	goldenLoaded bool
	failed       bool // hard failure: down until Repair, no auto-recovery

	// OnScrubRepair, if set, is called whenever a scrub pass repairs a
	// hung role — lets fault harnesses measure wedge-to-recovery latency.
	OnScrubRepair func()

	// lossRate injects egress frame loss on the TOR link (fault
	// injection: an unstable 40G link like the one §II-B replaced).
	lossRate float64
	lossRng  *rand.Rand

	// PFC generation state per (direction, class).
	pfcPaused [2][pkt.NumClasses]bool

	// service-datagram receiver (service.go).
	serviceHandler func(fromHost int, kind uint8, payload []byte)
	// dgramIngress records that the engine-side datagram receiver is
	// installed (shared by the global handler and slot handlers).
	dgramIngress bool
	// dgramScratch is the reused encode buffer for outgoing and
	// ER-forwarded service datagrams (see appendDgram).
	dgramScratch []byte

	// ltlInflight tracks network packets loaned to the LTL engine
	// (HandleFrame); the engine's frame-release hook recycles them.
	ltlInflight map[*pkt.Frame]*netsim.Packet

	// vFPGA slots (slots.go): slot state, datagram-kind routing, and
	// the multi-tenancy counters. Empty on single-role shells.
	slots    []*vSlot
	kindSlot map[uint8]int
	Tenant   TenantStats

	// remote request plumbing: connection id -> handler.
	remoteRecv map[uint16]func(payload []byte)
	// remoteDone holds per-connection FIFO completion callbacks (LTL
	// messages on one connection complete in order).
	remoteDone map[uint16][]func()
	// pending PCIe responses keyed by request id.
	pcieWaiters map[uint64]func([]byte)
	// pending DRAM responses keyed by request id.
	dramWaiters map[uint64]func([]byte)
	nextReqID   uint64

	// tracer is cached at construction; nil when observability is off.
	tracer *obs.Tracer

	Stats Stats
}

// New creates a shell for the host with the given id; its LTL engine
// shares the host's IP (distinguished by the LTL UDP port), exactly as a
// bump-in-the-wire shares the server's network identity.
func New(s *sim.Simulation, hostID int, portCfg netsim.PortConfig, cfg Config) *Shell {
	if cfg.Slots.Count >= 2 && cfg.ER.VCs < slotVCBase+cfg.Slots.Count {
		// Each vFPGA slot gets its own ER service virtual channel on top
		// of the VCService/VCLease pair.
		cfg.ER.VCs = slotVCBase + cfg.Slots.Count
	}
	sh := &Shell{
		cfg: cfg, sim: s, hostID: hostID,
		ip:  netsim.HostIP(hostID),
		mac: netsim.HostMAC(hostID),

		bridgeUp:     true,
		goldenLoaded: true,
		remoteRecv:   make(map[uint16]func([]byte)),
		remoteDone:   make(map[uint16][]func()),
		pcieWaiters:  make(map[uint64]func([]byte)),
		dramWaiters:  make(map[uint64]func([]byte)),
		tracer:       obs.TracerOf(s),
	}
	sh.hostPort = netsim.NewPort(s, sh, 0, portCfg)
	sh.netPort = netsim.NewPort(s, sh, 1, portCfg)
	if !cfg.NoLTL {
		sh.Engine = ltl.New(s, sh, cfg.LTL)
		sh.ltlInflight = make(map[*pkt.Frame]*netsim.Packet)
		sh.Engine.SetFrameRelease(sh.releaseLTLFrame)
	}

	sh.Router = er.New(s, cfg.ER)
	sh.Router.ObsID = hostID
	if r := obs.RegistryOf(s); r != nil {
		r.Counter("shell.bridged", "frames", "shell", "frames bridged NIC<->TOR", &sh.Stats.Bridged)
		r.Counter("shell.tapped", "frames", "shell", "frames transformed by a tap", &sh.Stats.Tapped)
		r.Counter("shell.consumed", "frames", "shell", "frames consumed by a tap", &sh.Stats.Consumed)
		r.Counter("shell.ltl_consumed", "frames", "shell", "LTL frames terminated at the engine", &sh.Stats.LTLConsumed)
		r.Counter("shell.dropped_down", "frames", "shell", "frames lost while the bridge was down", &sh.Stats.DroppedDown)
		r.Counter("shell.seus", "events", "shell", "injected configuration upsets", &sh.Stats.SEUs)
		r.Counter("shell.scrub_passes", "events", "shell", "configuration scrub passes", &sh.Stats.ScrubPasses)
		r.Counter("shell.scrub_repairs", "events", "shell", "hung roles repaired by scrubbing", &sh.Stats.ScrubRepairs)
		r.Counter("shell.role_hangs", "events", "shell", "role wedges from SEUs", &sh.Stats.RoleHangs)
		r.Counter("shell.reconfigs", "events", "shell", "role reconfigurations", &sh.Stats.Reconfigs)
		r.Counter("shell.pcie_reqs", "reqs", "shell", "host->role requests over PCIe DMA", &sh.Stats.PCIeReqs)
		r.Counter("shell.remote_reqs", "reqs", "shell", "role->remote messages entering LTL", &sh.Stats.RemoteReqs)
		r.Counter("shell.dgrams_sent", "dgrams", "shell", "role->remote service datagrams", &sh.Stats.DgramsSent)
		r.Counter("shell.dgrams_recv", "dgrams", "shell", "remote->role service datagrams delivered", &sh.Stats.DgramsRecv)
	}
	buf := cfg.ER.BufFlits
	sh.termPCIe = er.NewTerminal(s, sh.Router, er.PortPCIe, er.PortPCIe, buf)
	sh.termRole = er.NewTerminal(s, sh.Router, er.PortRole, er.PortRole, buf)
	sh.termDRAM = er.NewTerminal(s, sh.Router, er.PortDRAM, er.PortDRAM, buf)
	sh.termRemote = er.NewTerminal(s, sh.Router, er.PortRemote, er.PortRemote, buf)

	sh.termRole.OnMessage = sh.onRoleMessage
	sh.termRemote.OnMessage = sh.onRemoteMessage
	sh.termPCIe.OnMessage = sh.onPCIeMessage
	sh.termDRAM.OnMessage = sh.onDRAMMessage
	sh.DRAM = dram.New(s, dram.DefaultConfig())

	sh.initSlots()

	if cfg.ScrubInterval > 0 {
		s.Every(cfg.ScrubInterval, cfg.ScrubInterval, sh.scrub)
	}
	return sh
}

// DeviceName implements netsim.Device.
func (sh *Shell) DeviceName() string { return fmt.Sprintf("fpga%d", sh.hostID) }

// HostPort implements netsim.Interposer.
func (sh *Shell) HostPort() *netsim.Port { return sh.hostPort }

// NetPort implements netsim.Interposer.
func (sh *Shell) NetPort() *netsim.Port { return sh.netPort }

// LocalIP implements ltl.Wire.
func (sh *Shell) LocalIP() pkt.IP { return sh.ip }

// LocalMAC implements ltl.Wire.
func (sh *Shell) LocalMAC() pkt.MAC { return sh.mac }

// HostID returns the host this shell fronts.
func (sh *Shell) HostID() int { return sh.hostID }

// SetEgressLossRate makes the TOR-side link drop the given fraction of
// outgoing frames — fault injection for the LTL loss-recovery experiment.
func (sh *Shell) SetEgressLossRate(p float64) {
	sh.lossRate = p
	if sh.lossRng == nil {
		sh.lossRng = sh.sim.NewRand()
	}
}

// Output implements ltl.Wire: LTL frames enter the network on the TOR
// side after the bridge pipeline.
func (sh *Shell) Output(buf []byte) {
	if !sh.bridgeUp {
		sh.Stats.DroppedDown.Inc()
		return
	}
	if sh.lossRate > 0 && sh.lossRng.Float64() < sh.lossRate {
		return // flaky link ate the frame
	}
	// Copy-in: the engine's TX buffers are pooled and recycled as soon as
	// Output returns, so the packet must own its bytes.
	packet := netsim.NewPacketCopy(buf)
	if sh.tracer != nil && packet.F.IsLTL() {
		// Stamp the flow so every fabric hop can hang spans off the
		// packet: the flow tuple is recomputed from header fields alone,
		// matching what the LTL engines hash on both ends.
		if h, _, err := pkt.DecodeLTL(packet.F.Payload); err == nil {
			packet.Flow = obs.LTLFlow(packet.F.SrcIP.U32(), packet.F.DstIP.U32(), h.SrcConn, h.DstConn)
			packet.FlowSeq = uint64(h.Seq)
		}
	}
	packet.NextPort = sh.netPort
	sh.sim.ScheduleCall(sh.cfg.BridgeLatency, netsim.EnqueueCall, packet)
}

// releaseLTLFrame is the engine's frame-release hook: the loaned packet
// is dead once the engine has dispatched it, so it returns to the pool.
func (sh *Shell) releaseLTLFrame(f *pkt.Frame) {
	if p, ok := sh.ltlInflight[f]; ok {
		delete(sh.ltlInflight, f)
		p.Free()
	}
}

// AddTap appends a tap to the bridge datapath (taps run in order).
func (sh *Shell) AddTap(t Tap) { sh.taps = append(sh.taps, t) }

// HandleFrame implements netsim.Device: the bridge.
func (sh *Shell) HandleFrame(p *netsim.Port, packet *netsim.Packet) {
	if netsim.ParanoidEnabled() {
		packet.Verify()
	}
	// PFC is link-local: pause our own egress on the link it arrived on.
	if packet.F.EtherType == pkt.EtherTypePFC {
		if f, ok := pkt.DecodePFC(packet.F.Payload); ok {
			for c := 0; c < pkt.NumClasses; c++ {
				if f.Enabled[c] {
					p.Pause(pkt.TrafficClass(c),
						netsim.PauseQuantaToTime(f.Quanta[c], p.Config().Link.RateBps))
				}
			}
		}
		packet.Free() // control frames terminate here
		return
	}
	if !sh.bridgeUp {
		sh.Stats.DroppedDown.Inc()
		packet.Free()
		return
	}

	var dir Direction
	var fwd *netsim.Port
	if p == sh.hostPort {
		dir, fwd = HostToNet, sh.netPort
	} else {
		dir, fwd = NetToHost, sh.hostPort
	}

	// LTL frames addressed to this node terminate in the protocol engine.
	// A NoLTL shell has no engine: such frames fall through to the host,
	// which has no listener — equivalent to a closed port.
	// The packet is loaned to the engine across its rx pipeline delay;
	// the frame-release hook recycles it once dispatch completes.
	if dir == NetToHost && packet.F.IsLTL() && packet.F.DstIP == sh.ip && sh.Engine != nil {
		sh.Stats.LTLConsumed.Inc()
		sh.ltlInflight[packet.F] = packet
		sh.Engine.HandleFrame(packet.F)
		return
	}

	buf := packet.Buf
	f := packet.F
	var tapDelay sim.Time
	for _, tap := range sh.taps {
		out, delay := tap.Process(dir, buf, f)
		tapDelay += delay
		if out == nil {
			sh.Stats.Consumed.Inc()
			packet.Free()
			return
		}
		if &out[0] != &buf[0] || len(out) != len(buf) {
			sh.Stats.Tapped.Inc()
			buf = out
			nf, err := pkt.Decode(buf)
			if err != nil {
				panic(fmt.Sprintf("shell: tap produced undecodable frame: %v", err))
			}
			f = nf
		}
	}
	sh.Stats.Bridged.Inc()

	out := packet
	if f != packet.F {
		// A tap rewrote the frame; the original is dead.
		out = &netsim.Packet{Buf: buf, F: f, NextPort: fwd}
		packet.Free()
	}
	out.NextPort = fwd
	out.PrevPort = p
	sh.sim.ScheduleCall(sh.cfg.BridgeLatency+tapDelay, bridgeForward, out)
}

// bridgeForward completes the bridge pipeline latency: the frame crosses
// to the far-side port. The shell and direction are recovered from the
// packet's flight state, keeping the per-frame path closure-free.
func bridgeForward(v any) {
	packet := v.(*netsim.Packet)
	fwd, ingress := packet.NextPort, packet.PrevPort
	sh := fwd.Device().(*Shell)
	dir := HostToNet
	if fwd == sh.hostPort {
		dir = NetToHost
	}
	sh.forward(dir, fwd, ingress, packet)
}

// forward enqueues on the egress side and generates hop-by-hop PFC when a
// lossless class backs up (e.g. the TOR paused us and the NIC keeps
// sending).
func (sh *Shell) forward(dir Direction, fwd, ingress *netsim.Port, packet *netsim.Packet) {
	class := packet.Class()
	fwd.Enqueue(packet)
	if !fwd.Config().Lossless[class] || sh.cfg.PFCXoffBytes <= 0 {
		return
	}
	depth := fwd.QueuedBytes(class)
	d := int(dir)
	switch {
	case !sh.pfcPaused[d][class] && depth > sh.cfg.PFCXoffBytes:
		sh.pfcPaused[d][class] = true
		sh.sendPFC(ingress, class, netsim.TimeToPauseQuanta(100*sim.Microsecond, ingress.Config().Link.RateBps))
		sh.armPFCWatch(dir, fwd, ingress, class)
	}
}

// armPFCWatch polls the egress queue while paused, refreshing or resuming.
func (sh *Shell) armPFCWatch(dir Direction, fwd, ingress *netsim.Port, class pkt.TrafficClass) {
	d := int(dir)
	sh.sim.Schedule(50*sim.Microsecond, func() {
		if !sh.pfcPaused[d][class] {
			return
		}
		if fwd.QueuedBytes(class) < sh.cfg.PFCXonBytes {
			sh.pfcPaused[d][class] = false
			sh.sendPFC(ingress, class, 0) // resume
			return
		}
		sh.sendPFC(ingress, class, netsim.TimeToPauseQuanta(100*sim.Microsecond, ingress.Config().Link.RateBps))
		sh.armPFCWatch(dir, fwd, ingress, class)
	})
}

func (sh *Shell) sendPFC(out *netsim.Port, class pkt.TrafficClass, quanta uint16) {
	var pf pkt.PFCFrame
	pf.Enabled[class] = true
	pf.Quanta[class] = quanta
	out.EnqueueControl(netsim.NewPacket(pkt.EncodePFC(sh.mac, pf)))
}

// ---- Role slot ----

// LoadRole installs role logic (instantaneous; use Reconfigure to model
// the reconfiguration window).
func (sh *Shell) LoadRole(r Role) {
	sh.role = r
	sh.roleUp = r != nil
	sh.roleHung = false
}

// RoleUp reports whether the role slot is serving requests.
func (sh *Shell) RoleUp() bool { return sh.roleUp && !sh.roleHung }

// Role returns the loaded role (nil when empty).
func (sh *Shell) Role() Role { return sh.role }

// Reconfigure loads newRole. Full reconfiguration drops the bridge for
// FullReconfigTime ("Full FPGA reconfiguration briefly brings down this
// network link"); partial reconfiguration keeps packets flowing.
func (sh *Shell) Reconfigure(partial bool, newRole Role) {
	sh.Stats.Reconfigs.Inc()
	sh.roleUp = false
	dur := sh.cfg.FullReconfigTime
	if partial {
		dur = sh.cfg.PartialReconfigTime
	} else {
		sh.bridgeUp = false
	}
	sh.sim.Schedule(dur, func() {
		if sh.failed {
			return // died mid-reconfig; Repair owns recovery
		}
		sh.bridgeUp = true
		sh.LoadRole(newRole)
	})
}

// PowerCycle models the management-path recovery of §II: the known-good
// golden image reloads, the role slot empties, and the link returns.
func (sh *Shell) PowerCycle() {
	sh.bridgeUp = false
	sh.role = nil
	sh.roleUp = false
	sh.roleHung = false
	sh.failSlots()
	sh.sim.Schedule(sh.cfg.FullReconfigTime, func() {
		if sh.failed {
			return // died mid-cycle; Repair owns recovery
		}
		sh.bridgeUp = true
		sh.goldenLoaded = true
	})
}

// Fail hard-kills the FPGA (the §II-B "hard failure" class: board or
// datacenter-network issues needing manual intervention). The bridge goes
// down, the role slot empties, and nothing auto-recovers until Repair.
func (sh *Shell) Fail() {
	sh.failed = true
	sh.bridgeUp = false
	sh.role = nil
	sh.roleUp = false
	sh.roleHung = false
	sh.failSlots()
}

// Repair models the manual fix/replacement of a hard-failed board: the
// golden image reloads and the bridge returns after a full reconfiguration.
func (sh *Shell) Repair() {
	if !sh.failed {
		return
	}
	sh.failed = false
	sh.sim.Schedule(sh.cfg.FullReconfigTime, func() {
		if sh.failed {
			return
		}
		sh.bridgeUp = true
		sh.goldenLoaded = true
	})
}

// Failed reports whether the shell is hard-failed (down until Repair).
func (sh *Shell) Failed() bool { return sh.failed }

// BridgeUp reports whether the NIC<->TOR bridge is currently passing
// traffic.
func (sh *Shell) BridgeUp() bool { return sh.bridgeUp }

// InjectSEU flips configuration bits. With probability hangRole the role
// wedges until the next scrub pass (the paper observed one such hang).
func (sh *Shell) InjectSEU(hangRole bool) {
	sh.Stats.SEUs.Inc()
	if hangRole && sh.roleUp {
		sh.roleHung = true
		sh.Stats.RoleHangs.Inc()
	}
}

// scrub is the periodic configuration scrubber: it repairs flipped bits
// and recovers hung roles automatically.
func (sh *Shell) scrub() {
	if sh.failed {
		return // no scrubbing on a dead board
	}
	sh.Stats.ScrubPasses.Inc()
	if sh.roleHung {
		sh.roleHung = false
		sh.Stats.ScrubRepairs.Inc()
		if sh.OnScrubRepair != nil {
			sh.OnScrubRepair()
		}
	}
}

// ---- Local (PCIe) acceleration path ----

// pcieHeader prefixes ER messages with a request id and source tag.
const pcieHeaderLen = 9

func encodeReq(id uint64, src RequestSource, payload []byte) []byte {
	buf := make([]byte, pcieHeaderLen+len(payload))
	binary.BigEndian.PutUint64(buf, id)
	buf[8] = byte(src)
	copy(buf[pcieHeaderLen:], payload)
	return buf
}

func decodeReq(buf []byte) (id uint64, src RequestSource, payload []byte) {
	return binary.BigEndian.Uint64(buf), RequestSource(buf[8]), buf[pcieHeaderLen:]
}

// PCIeCall sends a request from host software to the role over the PCIe
// DMA engine and the ER, invoking reply with the role's response. It
// models DMA latency and bandwidth in both directions.
func (sh *Shell) PCIeCall(payload []byte, reply func([]byte)) error {
	if !sh.RoleUp() {
		return fmt.Errorf("shell %d: role not available", sh.hostID)
	}
	sh.Stats.PCIeReqs.Inc()
	sh.nextReqID++
	id := sh.nextReqID
	sh.pcieWaiters[id] = reply
	dma := sh.pcieTime(len(payload))
	msg := encodeReq(id, FromPCIe, payload)
	sh.sim.Schedule(dma, func() {
		sh.termPCIe.Send(er.PortRole, 0, msg)
	})
	return nil
}

func (sh *Shell) pcieTime(n int) sim.Time {
	return sh.cfg.PCIeLatency + sim.Time(int64(n)*8*int64(sim.Second)/sh.cfg.PCIeBps)
}

// onRoleMessage delivers ER messages addressed to the role slot. Requests
// from the PCIe DMA engine carry the request header and get the respond
// plumbing; deliveries from the Remote (LTL) port dispatch to the handler
// registered for their receive connection.
func (sh *Shell) onRoleMessage(m *er.Message) {
	if m.SrcNode == er.PortRemote {
		conn := binary.BigEndian.Uint16(m.Payload)
		if conn == dgramConn {
			sh.onRoleDgram(m)
			return
		}
		if h := sh.remoteRecv[conn]; h != nil {
			h(m.Payload[2:])
		}
		return
	}
	if m.SrcNode == er.PortDRAM {
		sh.onDRAMReply(m)
		return
	}
	if !sh.RoleUp() {
		return // hung or empty role slot swallows requests
	}
	id, src, payload := decodeReq(m.Payload)
	back := m.SrcNode
	vc := m.VC
	sh.role.HandleRequest(src, payload, func(resp []byte) {
		sh.termRole.Send(back, vc, encodeReq(id, src, resp))
	})
}

// onPCIeMessage completes host-side waiters (role responses surfacing
// through the DMA engine).
func (sh *Shell) onPCIeMessage(m *er.Message) {
	id, _, payload := decodeReq(m.Payload)
	reply, ok := sh.pcieWaiters[id]
	if !ok {
		return
	}
	delete(sh.pcieWaiters, id)
	sh.sim.Schedule(sh.pcieTime(len(payload)), func() { reply(payload) })
}

// ---- Remote (LTL) acceleration path ----

// remote messages between shells carry the target receive-connection id in
// the LTL connection tables themselves; the ER message toward the Remote
// port carries a 2-byte connection id prefix.

// OpenRemoteSend allocates an LTL send connection toward a remote shell.
func (sh *Shell) OpenRemoteSend(conn uint16, remoteHost int, remoteConn uint16, onFail func()) error {
	if sh.Engine == nil {
		return fmt.Errorf("shell %d: deployed without the LTL block", sh.hostID)
	}
	if conn == dgramConn || remoteConn == dgramConn {
		return fmt.Errorf("shell %d: connection id %#x is reserved for service datagrams", sh.hostID, dgramConn)
	}
	return sh.Engine.OpenSend(conn, netsim.HostIP(remoteHost), netsim.HostMAC(remoteHost), remoteConn, 0, onFail)
}

// OpenRemoteRecv allocates an LTL receive connection; handler receives
// each message after it crosses the ER from the Remote port to the Role.
func (sh *Shell) OpenRemoteRecv(conn uint16, fromHost int, handler func(payload []byte)) error {
	if sh.Engine == nil {
		return fmt.Errorf("shell %d: deployed without the LTL block", sh.hostID)
	}
	if conn == dgramConn {
		return fmt.Errorf("shell %d: connection id %#x is reserved for service datagrams", sh.hostID, dgramConn)
	}
	sh.remoteRecv[conn] = handler
	return sh.Engine.OpenRecv(conn, netsim.HostIP(fromHost), func(payload []byte) {
		// Deliver through the ER: Remote -> Role, modeling the on-chip hop.
		msg := make([]byte, 2+len(payload))
		binary.BigEndian.PutUint16(msg, conn)
		copy(msg[2:], payload)
		sh.termRemote.Send(er.PortRole, VCLease, msg)
	})
}

// onRemoteMessage moves role-originated messages into the LTL engine
// (Role -> Remote direction).
func (sh *Shell) onRemoteMessage(m *er.Message) {
	conn := binary.BigEndian.Uint16(m.Payload)
	if conn == dgramConn {
		sh.onRemoteDgram(m)
		return
	}
	payload := m.Payload[2:]
	sh.Stats.RemoteReqs.Inc()
	var done func()
	if q := sh.remoteDone[conn]; len(q) > 0 {
		done = q[0]
		sh.remoteDone[conn] = q[1:]
	}
	if err := sh.Engine.SendMessage(conn, payload, done); err != nil && done != nil {
		done()
	}
}

// SendRemote sends payload from the role to the remote shell on an
// already-open send connection, crossing the on-chip ER and the LTL
// engine. done (optional) fires when the message is fully ACKed.
//
// SendRemote on one connection completes in order, so completion
// callbacks are queued FIFO per connection.
func (sh *Shell) SendRemote(conn uint16, payload []byte, done func()) {
	if done != nil {
		sh.remoteDone[conn] = append(sh.remoteDone[conn], done)
	}
	msg := make([]byte, 2+len(payload))
	binary.BigEndian.PutUint16(msg, conn)
	copy(msg[2:], payload)
	sh.termRole.Send(er.PortRemote, VCLease, msg)
}

// SendControl emits a connection-less LTL control datagram (best-effort,
// no retransmission) toward a remote shell — the service-plane class used
// for queue-depth gossip and hedge-cancel notices.
func (sh *Shell) SendControl(remoteHost int, kind uint8, payload []byte) error {
	if sh.Engine == nil {
		return fmt.Errorf("shell %d: deployed without the LTL block", sh.hostID)
	}
	sh.Engine.SendControl(netsim.HostIP(remoteHost), netsim.HostMAC(remoteHost), kind, payload)
	return nil
}

// SetControlHandler installs the receiver for incoming control datagrams
// (nil drops them). The handler sees the sender's host id.
func (sh *Shell) SetControlHandler(h func(fromHost int, kind uint8, payload []byte)) error {
	if sh.Engine == nil {
		return fmt.Errorf("shell %d: deployed without the LTL block", sh.hostID)
	}
	if h == nil {
		sh.Engine.SetControlHandler(nil)
		return nil
	}
	sh.Engine.SetControlHandler(func(src pkt.IP, kind uint8, payload []byte) {
		id, ok := netsim.HostID(src)
		if !ok {
			return
		}
		h(id, kind, payload)
	})
	return nil
}
