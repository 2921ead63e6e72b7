package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestReplayTracesEveryLayer(t *testing.T) {
	sc := smallScenario(t)
	o := newOracle(sc)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	ms, err := runReplay(o, sc, 60, path)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, m := range ms {
		got[m.Name] = true
	}
	measuredOutside := map[string]bool{
		"service.cache.hit_ratio_live": true,
		"client.latency_p99_ms":        true, "client.latency_p999_ms": true, "client.samples": true, "client.slice_spread": true,
		"client.raw_throughput_rps": true, "client.raw_latency_p50_ms": true, "client.raw_setup_s": true,
		"host.reference_rps": true, "host.reference_build_ms": true,
	}
	for _, name := range perLayer {
		if !got[name] && !measuredOutside[name] {
			t.Errorf("replay did not report %s", name)
		}
	}
	if v := metricValue(ms, "core.update.reannotated_mean"); !(v > 0) {
		t.Errorf("no document update was replayed (reannotated_mean %v)", v)
	}
	checkSpans(t, path)
}

// checkSpans checks that every span ends after it starts, and lies inside
// its parent within the same request.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok || p.Req != s.Req || s.Start < p.Start || s.End > p.End {
				t.Fatalf("span %+v is not inside its parent %+v", s, p)
			}
		}
		byID[s.ID] = s
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(byID) == 0 {
		t.Fatal("no spans written")
	}
}
