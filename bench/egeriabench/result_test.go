package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func TestResultRoundTrips(t *testing.T) {
	r := &Result{
		Workload: "hot-query", Seed: 7, Seconds: 10, Trace: true,
		Host:    Host{CPU: "cpu", NProc: 2, GOMAXPROCS: 2, Go: "go1.x", Commit: "abc", Kernel: "6.x"},
		Correct: true, Attempted: 12345, Failed: 0,
		Metrics: []Metric{{Name: "throughput_rps", Value: 1234.5678901234567, Unit: "1/s"}, {Name: "setup_s", Value: 0.1, Unit: "s"}},
	}
	path := filepath.Join(t.TempDir(), "set.jsonl")
	for i := 0; i < 2; i++ {
		if err := appendResult(path, r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !reflect.DeepEqual(got[0], r) || !reflect.DeepEqual(got[1], r) {
		t.Fatalf("round trip gave %+v, want two of %+v", got, r)
	}
}

func TestSummaryLineHasFourKeys(t *testing.T) {
	r := &Result{Correct: true, Attempted: 3, Failed: 0}
	for _, d := range endToEnd {
		r.Metrics = append(r.Metrics, Metric{Name: d.Name, Value: 1.5, Unit: d.Unit})
	}
	line, err := summaryLine(r)
	if err != nil {
		t.Fatal(err)
	}
	var s map[string]json.RawMessage
	if err := json.Unmarshal(line, &s); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("summary keys %v, want %v", keys, want)
	}
	r.Trace = true
	if _, err := summaryLine(r); err == nil {
		t.Error("a traced summary without per-layer metrics did not fail")
	}
}

func runs(workload string, throughput ...float64) []*Result {
	var rs []*Result
	for _, v := range throughput {
		rs = append(rs, &Result{Workload: workload, Metrics: []Metric{{Name: "throughput_rps", Value: v, Unit: "1/s"}}})
	}
	return rs
}

func TestCompareVerdicts(t *testing.T) {
	base := runs("hot-query", 100, 101, 99, 100)
	for _, tc := range []struct {
		name string
		next []*Result
		want string
	}{
		{"same", runs("hot-query", 99, 100, 101, 100), verdictOK},
		{"slower beyond the bound", runs("hot-query", 70, 71, 69, 70), verdictRegressed},
		{"faster", runs("hot-query", 130, 131, 129, 130), verdictOK},
		{"too noisy to tell", runs("hot-query", 50, 150, 70, 110), verdictUnresolved},
	} {
		rows := compareSets(base, tc.next)
		if len(rows) != 1 || rows[0].Verdict != tc.want {
			t.Errorf("%s: rows %+v, want one %s", tc.name, rows, tc.want)
		}
	}
	traced := runs("hot-query", 10)
	traced[0].Trace = true
	if rows := compareSets(base, traced); len(rows) != 0 {
		t.Errorf("traced runs were compared: %+v", rows)
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json and the metric
// tables in this package in step.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef                           `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var workloads, layers []string
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("workloads %v, code has %v", workloads, workloadNames)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v, code has %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer %v, code has %v", layers, perLayer)
	}
}
