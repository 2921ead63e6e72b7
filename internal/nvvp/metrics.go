package nvvp

import (
	"encoding/json"
	"fmt"

	"repro/internal/gpusim"
)

// Metrics is the JSON profiler format — the "other commonly used profiling
// reports" extension the paper leaves as future work. A metrics snapshot is
// converted into performance issues by a threshold rule engine
// (Metrics.Issues), which feeds the same issue-to-query path as the text
// report format.
type Metrics struct {
	Program string `json:"program"`
	Kernel  string `json:"kernel"`

	// ratios in [0,1] unless noted
	WarpExecutionEfficiency float64 `json:"warp_execution_efficiency"`
	Occupancy               float64 `json:"occupancy"`
	GlobalLoadEfficiency    float64 `json:"global_load_efficiency"`
	BranchDivergence        float64 `json:"branch_divergence"`
	DramUtilization         float64 `json:"dram_utilization"`
	IssueSlotUtilization    float64 `json:"issue_slot_utilization"`
	LowThroughputInstFrac   float64 `json:"low_throughput_inst_fraction"`
	TransferComputeRatio    float64 `json:"transfer_compute_ratio"` // may exceed 1
}

// ParseMetricsJSON decodes a metrics snapshot.
func ParseMetricsJSON(data []byte) (*Metrics, error) {
	var m Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("nvvp: bad metrics JSON: %w", err)
	}
	// checked in struct-field order, so a snapshot with several bad ratios
	// always names the same one
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"warp_execution_efficiency", m.WarpExecutionEfficiency},
		{"occupancy", m.Occupancy},
		{"global_load_efficiency", m.GlobalLoadEfficiency},
		{"branch_divergence", m.BranchDivergence},
		{"dram_utilization", m.DramUtilization},
		{"issue_slot_utilization", m.IssueSlotUtilization},
	} {
		if r.v < 0 || r.v > 1 {
			return nil, fmt.Errorf("nvvp: metric %s = %v outside [0,1]", r.name, r.v)
		}
	}
	if m.TransferComputeRatio < 0 {
		return nil, fmt.Errorf("nvvp: transfer_compute_ratio negative")
	}
	return &m, nil
}

// MarshalJSON-compatible round trip is provided by the struct tags; Encode
// renders the snapshot for storage.
func (m *Metrics) Encode() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// Thresholds for the issue rule engine. Exposed as variables so harnesses
// can ablate them.
var (
	WarpEfficiencyFloor   = 0.80
	DivergenceCeiling     = 0.20
	LoadEfficiencyFloor   = 0.60
	OccupancyFloor        = 0.50
	IssueUtilizationFloor = 0.60
	LowThroughputCeiling  = 0.30
	DramUtilizationCeil   = 0.80
	TransferRatioCeiling  = 0.75
)

// Issues applies the threshold rules and returns the detected performance
// issues in report order. Issue titles and query texts reuse the NVVP
// vocabulary so the advisor's retrieval path is identical for both formats.
func (m *Metrics) Issues() []Issue {
	var out []Issue
	add := func(section, title, desc string) {
		out = append(out, Issue{Section: section, Title: title, Description: desc})
	}
	if m.Occupancy < OccupancyFloor && m.IssueSlotUtilization < IssueUtilizationFloor {
		add("Instruction and Memory Latency",
			"Instruction Latencies may be Limiting Performance",
			fmt.Sprintf("Occupancy is %.0f%% and issue slot utilization %.0f%%. "+
				"Too few warps are resident to hide instruction latency. Keep more "+
				"warps and resident blocks per multiprocessor, control register "+
				"usage, tune occupancy and the block size, and expose "+
				"instruction-level parallelism.",
				m.Occupancy*100, m.IssueSlotUtilization*100))
	}
	if m.WarpExecutionEfficiency < WarpEfficiencyFloor {
		add("Compute Resources",
			"Low Warp Execution Efficiency",
			fmt.Sprintf("Warp execution efficiency is %.0f%%. Under-populated or "+
				"divergent warps waste compute resources. Choose the threads per "+
				"block as a multiple of the warp size and keep warps uniformly "+
				"filled with eligible work.", m.WarpExecutionEfficiency*100))
	}
	if m.BranchDivergence > DivergenceCeiling {
		add("Compute Resources",
			"Divergent Branches",
			fmt.Sprintf("%.0f%% of branches diverge. Threads of the same warp "+
				"follow different paths of thread ID dependent conditions and "+
				"serialize. Rewrite the controlling condition so as to minimize "+
				"the number of divergent warps.", m.BranchDivergence*100))
	}
	if m.LowThroughputInstFrac > LowThroughputCeiling {
		add("Compute Resources",
			"GPU Utilization is Limited by Memory Instruction Execution",
			fmt.Sprintf("%.0f%% of executed instructions have low throughput. "+
				"Maximize instruction throughput by trading precision for speed, "+
				"using intrinsic functions, and avoiding synchronization points.",
				m.LowThroughputInstFrac*100))
	}
	if m.GlobalLoadEfficiency < LoadEfficiencyFloor {
		add("Memory Bandwidth",
			"Global Memory Alignment and Access Pattern",
			fmt.Sprintf("Global load efficiency is %.0f%%. Accesses split into "+
				"extra transactions. Improve coalescing and alignment of the base "+
				"address, padding, and the per-thread access pattern.",
				m.GlobalLoadEfficiency*100))
	}
	if m.DramUtilization > DramUtilizationCeil || m.TransferComputeRatio > TransferRatioCeiling {
		add("Memory Bandwidth",
			"GPU Utilization is Limited by Memory Bandwidth",
			fmt.Sprintf("DRAM utilization is %.0f%% and transfers cost %.2fx the "+
				"kernel time. Minimize data transfers, batch small transfers, use "+
				"pinned host memory, stage reused tiles in shared memory, and "+
				"overlap transfers with streams.",
				m.DramUtilization*100, m.TransferComputeRatio))
	}
	return out
}

// MetricsReport wraps the metric issues in a Report so the advisor consumes
// both formats identically.
func (m *Metrics) Report() *Report {
	order := []string{"Instruction and Memory Latency", "Compute Resources", "Memory Bandwidth"}
	r := &Report{Program: m.Program, Sections: make([]Section, len(order))}
	sections := map[string]*Section{}
	for i, title := range order {
		r.Sections[i].Title = title
		sections[title] = &r.Sections[i]
	}
	for _, issue := range m.Issues() {
		s := sections[issue.Section]
		s.Issues = append(s.Issues, issue)
	}
	return r
}

// ProfileKernel derives a metrics snapshot from the analytic kernel model —
// the bridge that lets the simulated workflow run end to end: model a
// kernel, profile it, feed the profile to the advisor, apply the advice,
// re-profile.
func ProfileKernel(k gpusim.Kernel, d gpusim.Device) *Metrics {
	occ := k.Occupancy(d)
	kernelTime := k.KernelTime(d)
	transferTime := k.TransferTime(d)
	ratio := 0.0
	if kernelTime > 0 {
		ratio = transferTime / kernelTime
	}
	warpEff := 1 / k.DivergenceFactor
	loadEff := 1 / k.CoalesceWaste
	divergence := (k.DivergenceFactor - 1) / k.DivergenceFactor

	// utilization ratios from the model's time components: the fraction of
	// the kernel's bottleneck budget each unit consumes
	compute, mem, latency := k.Components(d)
	total := compute + mem + latency
	dramUtil, lowThroughput := 0.0, 0.0
	if total > 0 {
		dramUtil = mem / maxf(compute, maxf(mem, latency)+1e-30)
		// "low throughput instruction" pressure: issue slots consumed by
		// replayed/divergent instruction streams
		lowThroughput = (compute / total) * clamp01(k.DivergenceFactor-1+k.InstPerThread/4000)
	}
	return &Metrics{
		Program:                 k.Name,
		Kernel:                  k.Name + "_kernel",
		WarpExecutionEfficiency: clamp01(warpEff),
		Occupancy:               clamp01(occ),
		GlobalLoadEfficiency:    clamp01(loadEff),
		BranchDivergence:        clamp01(divergence),
		DramUtilization:         clamp01(dramUtil),
		IssueSlotUtilization:    clamp01(occ * 1.2),
		LowThroughputInstFrac:   clamp01(lowThroughput),
		TransferComputeRatio:    ratio,
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
