package cryptoflow

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// CostModel holds the §IV calibration constants for software (Haswell AES
// instructions, Intel's published numbers [6]) and the FPGA crypto
// pipelines.
type CostModel struct {
	// CPUHz is the host clock the paper uses (2.4 GHz Haswell).
	CPUHz float64

	// GCMCyclesPerByte: "its AES GCM-128 performance on Haswell is 1.26
	// cycles per byte for encrypt and decrypt each."
	GCMCyclesPerByte float64
	// CBCSHA1CyclesPerByte is the effective throughput cost of
	// AES-CBC-128-SHA1, set so 40 Gb/s full duplex "consumes at least
	// fifteen cores".
	CBCSHA1CyclesPerByte float64
	// CBCSHA1LatencyCyclesPerByte is the single-packet latency cost
	// (unamortized: two dependent passes plus per-packet overhead),
	// set so a 1500 B packet costs ~4 µs in software.
	CBCSHA1LatencyCyclesPerByte float64

	// FPGAHz is the crypto pipeline clock.
	FPGAHz float64
	// CBCInterleave: "AES-CBC requires processing 33 packets at a time in
	// our implementation, taking only 128b from a single packet once
	// every 33 cycles" — the chain dependency forces one block per packet
	// per 33 cycles.
	CBCInterleave int
	// SHA1PipelineCycles is the hash pipeline fill/drain overhead.
	SHA1PipelineCycles int
	// GCMPipelineCycles is the GCM pipeline depth ("a single packet can
	// be processed with no dependencies and thus can be perfectly
	// pipelined").
	GCMPipelineCycles int
	// DRAMKeyFetch is the cost of pulling a flow's key from FPGA-attached
	// DRAM on first use; afterwards it lives in on-chip SRAM ("the
	// software-provided encryption key is read from internal FPGA SRAM or
	// the FPGA-attached DRAM").
	DRAMKeyFetch sim.Time
}

// DefaultCostModel returns the §IV calibration.
func DefaultCostModel() CostModel {
	return CostModel{
		CPUHz:                       2.4e9,
		GCMCyclesPerByte:            1.26,
		CBCSHA1CyclesPerByte:        3.6,
		CBCSHA1LatencyCyclesPerByte: 6.4,
		FPGAHz:                      290e6,
		CBCInterleave:               33,
		SHA1PipelineCycles:          180,
		GCMPipelineCycles:           60,
		DRAMKeyFetch:                250 * sim.Nanosecond,
	}
}

// SoftwareCores returns the CPU cores needed to run the suite at rateBps.
// fullDuplex doubles the work (encrypt + decrypt).
func (cm CostModel) SoftwareCores(s Suite, rateBps int64, fullDuplex bool) float64 {
	bytesPerSec := float64(rateBps) / 8
	var cpb float64
	switch s {
	case AESGCM128:
		cpb = cm.GCMCyclesPerByte
	default:
		cpb = cm.CBCSHA1CyclesPerByte
	}
	cores := bytesPerSec * cpb / cm.CPUHz
	if fullDuplex {
		cores *= 2
	}
	return cores
}

// SoftwareLatency returns the single-packet software crypto time.
func (cm CostModel) SoftwareLatency(s Suite, bytes int) sim.Time {
	var cpb float64
	switch s {
	case AESGCM128:
		cpb = cm.GCMCyclesPerByte
	default:
		cpb = cm.CBCSHA1LatencyCyclesPerByte
	}
	return sim.Time(float64(bytes) * cpb / cm.CPUHz * float64(sim.Second))
}

// FPGALatency returns the first-flit-to-first-flit FPGA crypto latency —
// the paper's "worst case half-duplex FPGA crypto latency for
// AES-CBC-128-SHA1 is 11 µs for a 1500B packet".
func (cm CostModel) FPGALatency(s Suite, bytes int) sim.Time {
	blocks := (bytes + 15) / 16
	var cycles float64
	switch s {
	case AESGCM128:
		cycles = float64(blocks + cm.GCMPipelineCycles)
	default:
		cycles = float64(blocks*cm.CBCInterleave + cm.SHA1PipelineCycles)
	}
	return sim.Time(cycles / cm.FPGAHz * float64(sim.Second))
}

// CostTable renders the §IV comparison rows.
func (cm CostModel) CostTable() *metrics.Table {
	t := &metrics.Table{
		Title: "Sec. IV — Crypto offload costs (40 Gb/s, 1500 B packets)",
		Headers: []string{"suite", "sw cores (full duplex)", "sw latency/pkt",
			"fpga latency/pkt", "fpga rate"},
	}
	for _, s := range []Suite{AESGCM128, AESCBC128SHA1} {
		t.AddRow(s.String(),
			cm.SoftwareCores(s, 40e9, true),
			cm.SoftwareLatency(s, 1500).String(),
			cm.FPGALatency(s, 1500).String(),
			"40Gb/s")
	}
	return t
}
