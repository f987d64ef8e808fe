// Package power is an architectural-level, activity-based energy model
// for the SMT core, in the spirit of ALPSS — the power simulator the
// paper's SimpleSMT simulator underlies (Lee & Gaudiot, TR-02-04) — and
// of Wattch-class models generally: each microarchitectural event
// (fetch, rename, issue, cache access, predictor access, commit) costs
// a fixed per-event energy, plus a static per-cycle term.
//
// Absolute joules are not meaningful for a synthetic substrate; the
// model's purpose is *relative* comparison — e.g. how much fetch/decode
// energy a scheduling policy wastes on wrong-path instructions, or the
// energy-per-instruction cost of the detector thread's idle-slot
// execution.
package power

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/counters"
	"repro/internal/pipeline"
)

// Model holds per-event energies in arbitrary consistent units
// (think pJ). DefaultModel's ratios follow the usual architectural
// breakdowns: caches and the out-of-order window dominate, DRAM
// accesses are an order of magnitude above SRAM.
type Model struct {
	FetchPerInst    float64 // fetch + decode datapath, per instruction
	RenamePerInst   float64 // rename tables + ROB/LSQ allocation
	WindowPerInst   float64 // instruction-queue write + wakeup + select
	ExecPerInst     float64 // functional-unit op (average)
	CommitPerInst   float64 // retirement datapath
	L1AccessEnergy  float64 // per L1 (I or D) access
	L2AccessEnergy  float64 // per L2 access
	MemAccessEnergy float64 // per DRAM access
	PredictorAccess float64 // direction predictor + BTB, per branch
	StaticPerCycle  float64 // clock tree + leakage per cycle
}

// DefaultModel returns the reference energy ratios.
func DefaultModel() Model {
	return Model{
		FetchPerInst:    4,
		RenamePerInst:   3,
		WindowPerInst:   6,
		ExecPerInst:     5,
		CommitPerInst:   2,
		L1AccessEnergy:  8,
		L2AccessEnergy:  40,
		MemAccessEnergy: 400,
		PredictorAccess: 3,
		StaticPerCycle:  25,
	}
}

// Report is the energy analysis of one simulation window.
type Report struct {
	Cycles    int64
	Committed uint64

	Total float64 // total energy, model units
	// EPI is energy per committed instruction — the efficiency metric.
	EPI float64
	// Power is energy per cycle.
	Power float64
	// WrongPath is the energy spent fetching, renaming and executing
	// instructions that were later squashed.
	WrongPath     float64
	WrongPathFrac float64
	// EDP is the energy-delay product (Total x Cycles), the usual
	// combined figure of merit.
	EDP float64

	// Breakdown maps component -> energy.
	Breakdown map[string]float64
}

// Analyze computes the report for a machine's whole history. Use
// AnalyzeDelta with counter snapshots for a sub-window.
func (mo Model) Analyze(m *pipeline.Machine) Report {
	n := m.NumThreads()
	var cum counters.Counters
	for i := 0; i < n; i++ {
		cum.Add(m.State(i).Cum)
	}
	h := m.Hierarchy()
	l1 := h.L1I.TotalStats()
	l1d := h.L1D.TotalStats()
	l2 := h.L2.TotalStats()
	return mo.analyze(m.Now(), cum,
		l1.Hits+l1.Misses+l1d.Hits+l1d.Misses,
		l2.Hits+l2.Misses,
		h.Mem.Accesses)
}

// AnalyzeDelta computes a report for a window given the cycle span,
// summed counter deltas, and cache access deltas.
func (mo Model) AnalyzeDelta(cycles int64, cum counters.Counters, l1Accesses, l2Accesses, memAccesses uint64) Report {
	return mo.analyze(cycles, cum, l1Accesses, l2Accesses, memAccesses)
}

func (mo Model) analyze(cycles int64, cum counters.Counters, l1Acc, l2Acc, memAcc uint64) Report {
	r := Report{
		Cycles:    cycles,
		Committed: cum.Committed,
		Breakdown: make(map[string]float64, 8),
	}
	fetched := float64(cum.Fetched)
	wrong := float64(cum.WrongFetched)

	// Each product is converted so no sum below fuses it into a
	// multiply-add (DESIGN.md §6).
	front := float64(fetched * (mo.FetchPerInst + mo.RenamePerInst + mo.WindowPerInst))
	exec := float64(fetched * mo.ExecPerInst) // squashed work executes too (approximation)
	commit := float64(float64(cum.Committed) * mo.CommitPerInst)
	caches := float64(float64(l1Acc)*mo.L1AccessEnergy) + float64(float64(l2Acc)*mo.L2AccessEnergy) + float64(float64(memAcc)*mo.MemAccessEnergy)
	pred := float64(float64(cum.Branches+cum.Mispredicts) * mo.PredictorAccess)
	static := float64(float64(cycles) * mo.StaticPerCycle)

	r.Breakdown["front-end"] = front
	r.Breakdown["execute"] = exec
	r.Breakdown["commit"] = commit
	r.Breakdown["caches"] = caches
	r.Breakdown["predictor"] = pred
	r.Breakdown["static"] = static

	r.Total = front + exec + commit + caches + pred + static
	if cum.Committed > 0 {
		r.EPI = r.Total / float64(cum.Committed)
	}
	if cycles > 0 {
		r.Power = r.Total / float64(cycles)
	}
	if fetched > 0 {
		// Wrong-path instructions consume the dynamic front-end and
		// execute energy in proportion to their fetch share.
		r.WrongPath = (front + exec) * (wrong / fetched)
		r.WrongPathFrac = r.WrongPath / r.Total
	}
	r.EDP = r.Total * float64(cycles)
	return r
}

// String renders the report compactly.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "energy %.3g units over %d cycles (%d committed)\n", r.Total, r.Cycles, r.Committed)
	fmt.Fprintf(&b, "  EPI %.2f, power %.2f/cycle, wrong-path %.1f%%, EDP %.3g\n",
		r.EPI, r.Power, 100*r.WrongPathFrac, r.EDP)
	keys := make([]string, 0, len(r.Breakdown))
	for k := range r.Breakdown {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-10s %6.1f%%\n", k, 100*r.Breakdown[k]/r.Total)
	}
	return b.String()
}
