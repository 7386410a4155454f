package shell

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// slotBed builds a small datacenter whose shells carry a 2-slot vFPGA
// partition.
func slotBed(s *sim.Simulation, sc SlotConfig) (*netsim.Datacenter, map[int]*Shell) {
	shells := map[int]*Shell{}
	cfg := netsim.DefaultConfig()
	cfg.HostsPerTOR = 4
	cfg.TORsPerPod = 3
	cfg.Pods = 2
	cfg.Interposer = func(dc *netsim.Datacenter, hostID int) netsim.Interposer {
		shCfg := DefaultConfig()
		shCfg.Slots = sc
		sh := New(dc.Sim, hostID, netsim.DefaultPortConfig(), shCfg)
		shells[hostID] = sh
		return sh
	}
	return netsim.NewDatacenter(s, cfg), shells
}

// tenantRole is a minimal Role for slot loading.
type tenantRole struct{ name string }

func (r tenantRole) Name() string { return r.name }
func (r tenantRole) HandleRequest(src RequestSource, payload []byte, respond func([]byte)) {
	respond(payload)
}

func TestSlotPartitionAndVCs(t *testing.T) {
	s := sim.New(1)
	dc, shells := slotBed(s, DefaultSlotConfig(2))
	dc.Host(0)
	sh := shells[0]
	caps := sh.SlotCaps()
	if len(caps) != 2 {
		t.Fatalf("%d slots, want 2", len(caps))
	}
	want := RoleRegionALMs() / 2
	for i, c := range caps {
		if c != want {
			t.Errorf("slot %d cap = %d ALMs, want %d", i, c, want)
		}
	}
	// The ER must have grown a dedicated VC per slot on top of
	// VCService/VCLease.
	if got := len(sh.Router.Stats.VCFlits); got != slotVCBase+2 {
		t.Errorf("ER VCs = %d, want %d", got, slotVCBase+2)
	}
	for i := 0; i < 2; i++ {
		info, err := sh.SlotView(i)
		if err != nil {
			t.Fatal(err)
		}
		if info.VC != slotVCBase+i {
			t.Errorf("slot %d VC = %d, want %d", i, info.VC, slotVCBase+i)
		}
		if info.Up {
			t.Errorf("slot %d up before any reconfiguration", i)
		}
	}
}

func TestSlotAsymmetricCapsAndOverflow(t *testing.T) {
	s := sim.New(1)
	sc := DefaultSlotConfig(2)
	sc.ALMs = []int{60000, 30000}
	dc, shells := slotBed(s, sc)
	dc.Host(0)
	sh := shells[0]
	if got := sh.SlotCaps(); got[0] != 60000 || got[1] != 30000 {
		t.Fatalf("caps = %v", got)
	}
	// A role larger than its slot's region must be rejected.
	if _, err := sh.ReconfigureSlot(1, "t", tenantRole{"big"}, 30001, nil); err == nil {
		t.Error("oversized role accepted into 30000-ALM slot")
	}
	// Capacities summing past the role region must panic at construction.
	defer func() {
		if recover() == nil {
			t.Error("slot partition exceeding role region did not panic")
		}
	}()
	bad := DefaultSlotConfig(2)
	bad.ALMs = []int{RoleRegionALMs(), 1}
	shCfg := DefaultConfig()
	shCfg.Slots = bad
	New(s, 9999, netsim.DefaultPortConfig(), shCfg)
}

func TestReconfigureSlotCostModel(t *testing.T) {
	s := sim.New(1)
	dc, shells := slotBed(s, DefaultSlotConfig(2))
	dc.Host(0)
	sh := shells[0]
	capALMs := sh.SlotCaps()[0]
	wantDur := sh.cfg.Slots.ReconfigBase + sim.Time(int64(capALMs)*int64(sh.cfg.Slots.ReconfigPerALM))

	var doneAt sim.Time = -1
	dur, err := sh.ReconfigureSlot(0, "rank", tenantRole{"ranking"}, 40000, func(ok bool) {
		if !ok {
			t.Error("reconfiguration reported failure")
		}
		doneAt = s.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if dur != wantDur {
		t.Fatalf("reconfig duration = %v, want %v (region area, not role size)", dur, wantDur)
	}
	// The slot is unavailable while its region reprograms.
	if sh.SlotUp(0) {
		t.Error("slot serving during reconfiguration")
	}
	if _, err := sh.ReconfigureSlot(0, "x", tenantRole{"x"}, 1, nil); err == nil {
		t.Error("overlapping reconfiguration accepted")
	}
	s.RunFor(dur + sim.Millisecond)
	if doneAt != dur {
		t.Fatalf("reconfiguration completed at %v, want %v", doneAt, dur)
	}
	if !sh.SlotUp(0) {
		t.Fatal("slot not serving after reconfiguration")
	}
	if got := sh.Tenant.SlotsLoaded.Value(); got != 1 {
		t.Errorf("slots_loaded = %d, want 1", got)
	}
	info, _ := sh.SlotView(0)
	if info.Tenant != "rank" || info.UsedALMs != 40000 {
		t.Errorf("slot view = %+v", info)
	}
}

func TestSlotFailMidReconfig(t *testing.T) {
	s := sim.New(1)
	dc, shells := slotBed(s, DefaultSlotConfig(2))
	dc.Host(0)
	sh := shells[0]
	ok := make(chan bool, 1) // buffered; fires inside the sim loop
	dur, err := sh.ReconfigureSlot(0, "t", tenantRole{"r"}, 1000, func(o bool) { ok <- o })
	if err != nil {
		t.Fatal(err)
	}
	s.Schedule(dur/2, func() { sh.Fail() })
	s.RunFor(dur + sim.Millisecond)
	select {
	case o := <-ok:
		if o {
			t.Error("reconfiguration succeeded despite board failure mid-program")
		}
	default:
		t.Fatal("done callback never fired")
	}
	if sh.SlotUp(0) {
		t.Error("slot up after board failure")
	}
}

func TestClearSlotCancelsInFlightReconfig(t *testing.T) {
	s := sim.New(1)
	dc, shells := slotBed(s, DefaultSlotConfig(2))
	dc.Host(0)
	sh := shells[0]
	var got *bool
	dur, err := sh.ReconfigureSlot(1, "t", tenantRole{"r"}, 1000, func(o bool) { got = &o })
	if err != nil {
		t.Fatal(err)
	}
	s.Schedule(dur/2, func() {
		if err := sh.ClearSlot(1); err != nil {
			t.Error(err)
		}
	})
	s.RunFor(dur + sim.Millisecond)
	if got == nil || *got {
		t.Error("cleared slot's in-flight reconfiguration was not cancelled")
	}
	if sh.SlotUp(1) {
		t.Error("cleared slot reports up")
	}
}

func TestSlotDatagramRoutingAndIsolationVC(t *testing.T) {
	s := sim.New(1)
	dc, shells := slotBed(s, DefaultSlotConfig(2))
	dc.Host(0)
	dc.Host(1)
	a, b := shells[0], shells[1]

	// Load both of b's slots and bind one datagram kind to each.
	for i, tn := range []string{"kv", "crypto"} {
		dur, err := b.ReconfigureSlot(i, tn, tenantRole{tn}, 1000, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.RunFor(dur + sim.Millisecond)
	}
	gotKind := map[uint8]int{} // kind -> slot that received it
	for i, kind := range []uint8{10, 20} {
		i, kind := i, kind
		if err := b.SetServiceHandlerSlot(i, []uint8{kind}, func(from int, k uint8, p []byte) {
			gotKind[k] = i
			if from != 0 {
				t.Errorf("from = %d, want 0", from)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Binding a kind already owned by slot 0 to slot 1 must error.
	if err := b.SetServiceHandlerSlot(1, []uint8{10}, func(int, uint8, []byte) {}); err == nil {
		t.Error("cross-slot kind rebind accepted")
	}

	base0 := b.Router.Stats.VCFlits[slotVCBase].Value()
	base1 := b.Router.Stats.VCFlits[slotVCBase+1].Value()
	if err := a.SendDatagram(1, 10, []byte("to-kv")); err != nil {
		t.Fatal(err)
	}
	if err := a.SendDatagram(1, 20, []byte("to-crypto")); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Millisecond)
	if gotKind[10] != 0 || gotKind[20] != 1 {
		t.Fatalf("kind routing = %v, want {10:0, 20:1}", gotKind)
	}
	// Each slot's inbound traffic crossed the ER on its own VC.
	if b.Router.Stats.VCFlits[slotVCBase].Value() == base0 {
		t.Error("slot 0 traffic did not use its dedicated VC")
	}
	if b.Router.Stats.VCFlits[slotVCBase+1].Value() == base1 {
		t.Error("slot 1 traffic did not use its dedicated VC")
	}
}

func TestSlotSwallowsDgramsDuringReconfig(t *testing.T) {
	s := sim.New(1)
	dc, shells := slotBed(s, DefaultSlotConfig(2))
	dc.Host(0)
	dc.Host(1)
	a, b := shells[0], shells[1]
	dur, _ := b.ReconfigureSlot(0, "kv", tenantRole{"kv"}, 1000, nil)
	s.RunFor(dur + sim.Millisecond)
	delivered := 0
	b.SetServiceHandlerSlot(0, []uint8{10}, func(int, uint8, []byte) { delivered++ })

	a.SendDatagram(1, 10, []byte("while up"))
	s.RunFor(sim.Millisecond)
	if delivered != 1 {
		t.Fatalf("delivered = %d before reconfig", delivered)
	}
	// Start a reprogram and send into the unavailability window.
	b.ReconfigureSlot(0, "kv", tenantRole{"kv2"}, 1000, nil)
	a.SendDatagram(1, 10, []byte("into the window"))
	s.RunFor(sim.Millisecond)
	if delivered != 1 {
		t.Errorf("delivered = %d, datagram should be swallowed mid-reconfig", delivered)
	}
	if b.Tenant.DgramsDropped.Value() == 0 {
		t.Error("dgrams_dropped not incremented for the reconfig window")
	}
	// Egress from a reprogramming slot errors and counts a drop.
	if err := b.SendDatagramSlot(0, 0, 10, []byte("x")); err == nil {
		t.Error("egress accepted from a reprogramming slot")
	}
}

func TestTokenBucketCharge(t *testing.T) {
	// 8 Mbps bucket, 1000-byte burst: the first KB is free, each further
	// KB serializes behind 1ms of refill.
	tb := tokenBucket{rateBps: 8e6, burst: 8000, tokens: 8000}
	if d := tb.charge(0, 1000); d != 0 {
		t.Fatalf("burst send delayed %v", d)
	}
	if d := tb.charge(0, 1000); d != sim.Millisecond {
		t.Fatalf("second send delay = %v, want 1ms", d)
	}
	if d := tb.charge(0, 1000); d != 2*sim.Millisecond {
		t.Fatalf("third send delay = %v, want 2ms (serialized debt)", d)
	}
	// By 3ms the 2KB debt is repaid and one KB of credit accrued: the
	// next KB is free, the one after serializes again.
	if d := tb.charge(3*sim.Millisecond, 1000); d != 0 {
		t.Fatalf("post-repay delay = %v, want 0", d)
	}
	if d := tb.charge(3*sim.Millisecond, 1000); d != sim.Millisecond {
		t.Fatalf("post-repay second send delay = %v, want 1ms", d)
	}
	// Idle time refills only to the burst cap.
	tb2 := tokenBucket{rateBps: 8e6, burst: 8000, tokens: 0, last: 0}
	if d := tb2.charge(sim.Hour, 1000); d != 0 {
		t.Fatalf("refilled bucket delayed %v", d)
	}
	if tb2.tokens != 8000-8000 {
		t.Fatalf("tokens = %d after capped refill and 1KB send", tb2.tokens)
	}
}

func TestSlotEgressShaping(t *testing.T) {
	s := sim.New(1)
	dc, shells := slotBed(s, DefaultSlotConfig(2))
	dc.Host(0)
	dc.Host(1)
	a, b := shells[0], shells[1]
	dur, _ := a.ReconfigureSlot(0, "elephant", tenantRole{"blast"}, 1000, nil)
	s.RunFor(dur + sim.Millisecond)
	start := s.Now()

	// 8 Mbps with a single-KB burst: 10 KB datagrams back-to-back must
	// arrive paced ~1ms apart.
	if err := a.SetSlotEgressRate(0, 8e6, 1000); err != nil {
		t.Fatal(err)
	}
	var arrivals []sim.Time
	b.SetServiceHandler(func(from int, kind uint8, p []byte) { arrivals = append(arrivals, s.Now()) })
	for i := 0; i < 10; i++ {
		if err := a.SendDatagramSlot(0, 1, 42, make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	s.RunFor(20 * sim.Millisecond)
	if len(arrivals) != 10 {
		t.Fatalf("arrivals = %d, want 10", len(arrivals))
	}
	span := arrivals[len(arrivals)-1] - arrivals[0]
	if span < 8*sim.Millisecond {
		t.Errorf("10 paced sends spanned %v, want ~9ms at 1KB/ms", span)
	}
	if got := a.Tenant.EgressThrottled.Value(); got != 9 {
		t.Errorf("egress_throttled = %d, want 9 (all but the burst head)", got)
	}
	if got := a.Tenant.EgressBytes.Value(); got != 10000 {
		t.Errorf("egress_bytes = %d, want 10000", got)
	}
	_ = start

	// Removing shaping makes sends immediate again.
	if err := a.SetSlotEgressRate(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	arrivals = arrivals[:0]
	sendAt := s.Now()
	for i := 0; i < 5; i++ {
		a.SendDatagramSlot(0, 1, 42, make([]byte, 1000))
	}
	s.RunFor(5 * sim.Millisecond)
	if len(arrivals) != 5 {
		t.Fatalf("unshaped arrivals = %d", len(arrivals))
	}
	if spread := arrivals[4] - arrivals[0]; spread > sim.Millisecond {
		t.Errorf("unshaped sends spread %v apart (sent together at %v)", spread, sendAt)
	}
}

func TestSingleRoleShellUnchanged(t *testing.T) {
	// A Count<2 config keeps the classic shell: no slots, slot APIs error,
	// no tenant metrics behavior.
	s := sim.New(1)
	dc, shells := slotBed(s, SlotConfig{})
	dc.Host(0)
	sh := shells[0]
	if n := len(sh.SlotCaps()); n != 0 {
		t.Fatalf("%d slots on an unslotted shell", n)
	}
	if _, err := sh.ReconfigureSlot(0, "t", tenantRole{"r"}, 1, nil); err == nil {
		t.Error("ReconfigureSlot succeeded on an unslotted shell")
	}
	if err := sh.SendDatagramSlot(0, 1, 9, nil); err == nil {
		t.Error("SendDatagramSlot succeeded on an unslotted shell")
	}
	if got := len(sh.Router.Stats.VCFlits); got != 2 {
		t.Errorf("ER VCs = %d on an unslotted shell, want 2", got)
	}
}
