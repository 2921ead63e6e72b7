package nvvp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gpusim"
)

func healthyMetrics() Metrics {
	return Metrics{
		Program:                 "toy",
		Kernel:                  "toy_kernel",
		WarpExecutionEfficiency: 0.95,
		Occupancy:               0.9,
		GlobalLoadEfficiency:    0.9,
		BranchDivergence:        0.05,
		DramUtilization:         0.4,
		IssueSlotUtilization:    0.8,
		LowThroughputInstFrac:   0.05,
		TransferComputeRatio:    0.1,
	}
}

func TestMetricsJSONRoundTrip(t *testing.T) {
	m := healthyMetrics()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseMetricsJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if *back != m {
		t.Errorf("round trip mismatch:\n%+v\n%+v", *back, m)
	}
}

func TestParseMetricsJSONValidation(t *testing.T) {
	cases := []string{
		`{"occupancy": 1.5}`,
		`{"warp_execution_efficiency": -0.1}`,
		`{"transfer_compute_ratio": -1}`,
		`not json`,
	}
	for _, c := range cases {
		if _, err := ParseMetricsJSON([]byte(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
	if _, err := ParseMetricsJSON([]byte(`{}`)); err != nil {
		t.Errorf("empty metrics rejected: %v", err)
	}
}

// A snapshot with two out-of-range ratios must be rejected naming the first
// in struct-field order, every time.
func TestParseMetricsJSONErrorIsDeterministic(t *testing.T) {
	body := []byte(`{"occupancy":1.5,"dram_utilization":-0.5}`)
	for i := 0; i < 100; i++ {
		_, err := ParseMetricsJSON(body)
		if err == nil || !strings.Contains(err.Error(), "occupancy") || strings.Contains(err.Error(), "dram_utilization") {
			t.Fatalf("parse %d: error %v, want it to name occupancy only", i, err)
		}
	}
}

func TestHealthyKernelHasNoIssues(t *testing.T) {
	m := healthyMetrics()
	if issues := m.Issues(); len(issues) != 0 {
		t.Errorf("healthy metrics produced issues: %+v", issues)
	}
}

func TestEachRuleFires(t *testing.T) {
	cases := []struct {
		mutate func(*Metrics)
		title  string
	}{
		{func(m *Metrics) { m.WarpExecutionEfficiency = 0.5 }, "Low Warp Execution Efficiency"},
		{func(m *Metrics) { m.BranchDivergence = 0.4 }, "Divergent Branches"},
		{func(m *Metrics) { m.GlobalLoadEfficiency = 0.3 }, "Global Memory Alignment and Access Pattern"},
		{func(m *Metrics) { m.Occupancy = 0.3; m.IssueSlotUtilization = 0.3 }, "Instruction Latencies may be Limiting Performance"},
		{func(m *Metrics) { m.DramUtilization = 0.95 }, "GPU Utilization is Limited by Memory Bandwidth"},
		{func(m *Metrics) { m.TransferComputeRatio = 2.0 }, "GPU Utilization is Limited by Memory Bandwidth"},
		{func(m *Metrics) { m.LowThroughputInstFrac = 0.5 }, "GPU Utilization is Limited by Memory Instruction Execution"},
	}
	for _, c := range cases {
		m := healthyMetrics()
		c.mutate(&m)
		issues := m.Issues()
		found := false
		for _, i := range issues {
			if i.Title == c.title {
				found = true
				if i.Description == "" {
					t.Errorf("%s: empty description", c.title)
				}
			}
		}
		if !found {
			t.Errorf("rule for %q did not fire: %+v", c.title, issues)
		}
	}
}

func TestMetricsReportStructure(t *testing.T) {
	m := healthyMetrics()
	m.BranchDivergence = 0.5
	m.DramUtilization = 0.95
	r := m.Report()
	if r.Program != "toy" {
		t.Errorf("program %q", r.Program)
	}
	if len(r.Sections) != 3 {
		t.Fatalf("%d sections", len(r.Sections))
	}
	if len(r.Issues()) != 2 {
		t.Errorf("%d issues, want 2", len(r.Issues()))
	}
	// issues live in the right sections
	for _, s := range r.Sections {
		for _, i := range s.Issues {
			if i.Section != s.Title {
				t.Errorf("issue %q in section %q tagged %q", i.Title, s.Title, i.Section)
			}
		}
	}
}

func TestProfileKernelBaselineShowsProblems(t *testing.T) {
	// the unoptimized study kernel must profile as problematic
	m := ProfileKernel(gpusim.NormKernel(), gpusim.GTX780())
	issues := m.Issues()
	if len(issues) < 3 {
		t.Fatalf("baseline kernel only shows %d issues: %+v", len(issues), issues)
	}
	titles := map[string]bool{}
	for _, i := range issues {
		titles[i.Title] = true
	}
	for _, want := range []string{"Divergent Branches", "Global Memory Alignment and Access Pattern"} {
		if !titles[want] {
			t.Errorf("baseline profile missing %q", want)
		}
	}
}

func TestProfileKernelOptimizedIsClean(t *testing.T) {
	k := gpusim.Apply(gpusim.NormKernel(),
		gpusim.RemoveDivergence, gpusim.CoalesceAccesses, gpusim.TuneOccupancy,
		gpusim.UnrollLoop, gpusim.StageShared, gpusim.PinTransfers)
	m := ProfileKernel(k, gpusim.GTX780())
	issues := m.Issues()
	if len(issues) > 1 {
		t.Errorf("fully optimized kernel still shows %d issues: %+v", len(issues), issues)
	}
}

func TestProfileKernelMetricsInRange(t *testing.T) {
	for _, d := range []gpusim.Device{gpusim.GTX780(), gpusim.GTX480()} {
		m := ProfileKernel(gpusim.NormKernel(), d)
		data, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseMetricsJSON(data); err != nil {
			t.Errorf("%s: profile fails its own validation: %v\n%s", d.Name, err, data)
		}
	}
}

func TestOptimizationImprovesItsMetric(t *testing.T) {
	base := ProfileKernel(gpusim.NormKernel(), gpusim.GTX780())
	divFixed := ProfileKernel(gpusim.Apply(gpusim.NormKernel(), gpusim.RemoveDivergence), gpusim.GTX780())
	if divFixed.BranchDivergence >= base.BranchDivergence {
		t.Error("divergence removal did not improve the divergence metric")
	}
	coalesced := ProfileKernel(gpusim.Apply(gpusim.NormKernel(), gpusim.CoalesceAccesses), gpusim.GTX780())
	if coalesced.GlobalLoadEfficiency <= base.GlobalLoadEfficiency {
		t.Error("coalescing did not improve load efficiency")
	}
	tuned := ProfileKernel(gpusim.Apply(gpusim.NormKernel(), gpusim.TuneOccupancy), gpusim.GTX780())
	if tuned.Occupancy <= base.Occupancy {
		t.Error("occupancy tuning did not improve occupancy")
	}
}

// TestBenchmarkKernelProfilesMatchReports ties the kernel models to the
// paper's Table 6 program set: each modeled baseline profiles with the
// issues its NVVP report lists, and each _opt variant clears the issue its
// optimization fixed.
func TestBenchmarkKernelProfilesMatchReports(t *testing.T) {
	d := gpusim.GTX780()
	titles := func(k gpusim.Kernel) map[string]bool {
		out := map[string]bool{}
		for _, i := range ProfileKernel(k, d).Issues() {
			out[i.Title] = true
		}
		return out
	}

	knn := titles(gpusim.KNNJoinKernel())
	for _, want := range []string{"Low Warp Execution Efficiency", "Divergent Branches"} {
		if !knn[want] {
			t.Errorf("knnjoin profile missing %q: %v", want, knn)
		}
	}

	knnOpt := titles(gpusim.KNNJoinOptKernel())
	if knnOpt["Divergent Branches"] {
		t.Error("knnjoin_opt still shows divergent branches")
	}

	trans := titles(gpusim.TransKernel())
	if !trans["Global Memory Alignment and Access Pattern"] {
		t.Errorf("trans profile missing the coalescing issue: %v", trans)
	}
	if !trans["Instruction Latencies may be Limiting Performance"] {
		t.Errorf("trans profile missing the latency issue: %v", trans)
	}

	transOpt := titles(gpusim.TransOptKernel())
	if transOpt["Global Memory Alignment and Access Pattern"] {
		t.Error("trans_opt still shows the coalescing issue")
	}
	if !transOpt["GPU Utilization is Limited by Memory Bandwidth"] {
		t.Errorf("trans_opt should saturate bandwidth (its report's issue): %v", transOpt)
	}
}

func TestMetricsIssueDescriptionsMentionValues(t *testing.T) {
	m := healthyMetrics()
	m.WarpExecutionEfficiency = 0.42
	issues := m.Issues()
	if len(issues) != 1 || !strings.Contains(issues[0].Description, "42%") {
		t.Errorf("description should carry the measured value: %+v", issues)
	}
}

// TestParseReport: a text whose first non-space byte is '{' parses as a
// metrics snapshot, anything else as a text report, and each result or
// error equals the direct call's.
func TestParseReport(t *testing.T) {
	m := healthyMetrics()
	m.WarpExecutionEfficiency = 0.4
	snapshot, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	text, err := Synthesize("norm")
	if err != nil {
		t.Fatal(err)
	}
	viaMetrics := func(body string) (*Report, error) {
		m, err := ParseMetricsJSON([]byte(strings.TrimSpace(body)))
		if err != nil {
			return nil, err
		}
		return m.Report(), nil
	}
	for _, c := range []struct {
		name, body string
		direct     func(string) (*Report, error)
		wantErr    bool
	}{
		{"json", string(snapshot), viaMetrics, false},
		{"json_leading_whitespace", "\n\t  " + string(snapshot) + "\n", viaMetrics, false},
		{"text", text, Parse, false},
		{"malformed_json", "  {\"occupancy\": ", viaMetrics, true},
		{"out_of_range_json", `{"occupancy": 2}`, viaMetrics, true},
		{"malformed_text", "not a report", Parse, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := ParseReport(c.body)
			want, wantErr := c.direct(c.body)
			if (err != nil) != c.wantErr || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("err %v, direct call %v, want an error: %v", err, wantErr, c.wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("report %+v, direct call %+v", got, want)
			}
			if !c.wantErr && len(got.Issues()) == 0 {
				t.Fatal("no issues parsed")
			}
		})
	}
}
