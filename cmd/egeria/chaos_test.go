package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/store"
)

// -chaos.short shrinks the soak volume for make check / CI smoke runs; the
// full volume is the default for a dedicated chaos pass.
var chaosShort = flag.Bool("chaos.short", false, "run the chaos soak at reduced volume")

// chaosTraceRe scrubs per-request trace IDs so post-recovery bodies can be
// byte-compared against the fault-free control.
var chaosTraceRe = regexp.MustCompile(`"trace_id":"[^"]*"`)

func scrubTrace(b []byte) string {
	return string(chaosTraceRe.ReplaceAll(b, []byte(`"trace_id":"X"`)))
}

// TestServeChaosSoak is the end-to-end chaos suite from DESIGN.md §12: boot
// the full serve stack with every fault point armed at >= 10% probability,
// drive concurrent query/ask/batch/reload/stats traffic against it (run with
// -race in CI), and assert the resilience contract:
//
//   - no panics or torn responses (every response is well-formed JSON with a
//     trace ID and an expected status);
//   - an ask under sustained scoring failure still answers within its
//     deadline, naming every advisor with its error;
//   - torn snapshot writes never corrupt the store (post-run loads are clean);
//   - after faults stop, answers are byte-identical — hence
//     Float64bits-identical scores — to a fault-free control server.
func TestServeChaosSoak(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	advisors := []string{"cuda", "opencl"}
	queries := []string{
		"reduce global memory latency",
		"avoid divergent warps",
		"improve occupancy",
		"work group size tuning",
	}
	newSources := func() []lifecycle.Source {
		return []lifecycle.Source{
			testSource(t, "cuda", 120, 9),
			testSource(t, "opencl", 120, 9),
		}
	}

	// fault-free control: same advisors, no injector. Its answers are the
	// ground truth the chaos server must reproduce after recovery.
	control, _, _, err := buildServeHandler(core.New(), serveConfig{
		primaryName: "cuda",
		cacheSize:   128,
		maxInflight: 64,
		maxBatch:    8,
		timeout:     5 * time.Second,
		metrics:     obs.NewRegistry(),
		sources:     newSources(),
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(control)
	defer cts.Close()

	var probeURLs []string
	for _, a := range advisors {
		for _, q := range queries {
			probeURLs = append(probeURLs, fmt.Sprintf("/v1/%s/query?q=%s", a, url.QueryEscape(q)))
		}
	}
	for _, q := range queries {
		probeURLs = append(probeURLs, "/v1/ask?q="+url.QueryEscape(q)+"&k=4")
	}
	want := make(map[string]string, len(probeURLs))
	for _, p := range probeURLs {
		code, body := httpGet(t, cts.URL+p)
		if code != 200 {
			t.Fatalf("control %s: %d %s", p, code, body)
		}
		want[p] = scrubTrace(body)
	}

	// the chaos server: a live injector threaded through store, lifecycle,
	// and service, exactly as `egeria serve -fault` wires it. Boot happens
	// before any rule is armed so the warm start is clean.
	inj := fault.New(42)
	snapDir := t.TempDir()
	handler, svc, _, err := buildServeHandler(core.New(), serveConfig{
		primaryName: "cuda",
		snapshotDir: snapDir,
		cacheSize:   128,
		maxInflight: 64,
		maxBatch:    8,
		timeout:     5 * time.Second,
		metrics:     obs.NewRegistry(),
		faults:      inj,
		retries:     2,
		backoff:     time.Millisecond,
		sources:     newSources(),
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	// arm every point in the catalog at >= 10%, plus torn writes and latency
	for _, p := range fault.Points() {
		inj.Set(p, fault.Rule{ErrProb: 0.2})
	}
	inj.Set(fault.StoreWrite, fault.Rule{ErrProb: 0.2, PartialProb: 0.3})
	inj.Set(fault.VSMScore, fault.Rule{ErrProb: 0.2, Latency: 200 * time.Microsecond, LatencyProb: 0.5})

	// the probes run under fire too: an injected failure must never be
	// cached, which the post-chaos comparison with the
	// control would expose
	for _, p := range probeURLs {
		if code, body := httpGet(t, ts.URL+p); code != 200 && code < 500 {
			t.Fatalf("probe under faults %s: %d %s", p, code, body)
		}
	}

	workers, requests := 6, 60
	if *chaosShort {
		workers, requests = 3, 25
	}
	res := chaos.Run(chaos.Config{
		BaseURL:  ts.URL,
		Advisors: advisors,
		Queries:  queries,
		Workers:  workers,
		Requests: requests,
		Seed:     42,
		Reload:   true,
	})
	if res.AnomalyN != 0 {
		t.Fatalf("chaos storm: %d contract violations, e.g. %v", res.AnomalyN, res.Anomalies)
	}
	if res.Errors5xx() == 0 {
		t.Fatalf("no 5xx under a 20%% fault storm — injection not wired? statuses %v", res.Statuses())
	}
	t.Logf("storm: %d requests, %d 5xx, statuses %v, mix %v", res.Requests, res.Errors5xx(), res.Statuses(), res.ByKind)

	// deterministic point sweep: volume alone could miss a low-traffic point
	// in -chaos.short mode, so drive each one at err=1 and demand the hit
	inj.Reset()
	sweep := []struct {
		point fault.Point
		drive func()
	}{
		{fault.ServiceHandler, func() { httpGet(t, ts.URL+"/v1/cuda/query?q=sweep+handler") }},
		{fault.NLPAnnotate, func() { httpGet(t, ts.URL+"/v1/cuda/query?q=sweep+annotate") }},
		{fault.VSMScore, func() { httpGet(t, ts.URL+"/v1/cuda/query?q=sweep+score") }},
		{fault.LifecycleRebuild, func() {
			resp, err := http.Post(ts.URL+"/v1/admin/reload?advisor=cuda", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 500 {
				t.Errorf("reload under total rebuild faults: %d, want 500", resp.StatusCode)
			}
		}},
		{fault.StoreWrite, func() {
			resp, err := http.Post(ts.URL+"/v1/admin/reload?advisor=cuda", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("reload with snapshot-save faults: %d, want 200 (persistence is off the serving path)", resp.StatusCode)
			}
		}},
	}
	for _, s := range sweep {
		before := inj.Hits()[s.point]
		inj.Set(s.point, fault.Rule{ErrProb: 1})
		s.drive()
		inj.Reset()
		if inj.Hits()[s.point] <= before {
			t.Errorf("point %s: no injected faults recorded", s.point)
		}
	}

	// an ask with scoring failing hard: every advisor is asked, the ask
	// answers within its deadline, and each advisor is named with its
	// error. The question uses a word both guides use, so it misses, and so
	// scores, on both.
	var advs []*core.Advisor
	for _, a := range advisors {
		adv, ok := svc.Registry().Get(a)
		if !ok {
			t.Fatalf("no %s advisor", a)
		}
		advs = append(advs, adv)
	}
	word := guideWords(t, 1, advs...)[0]
	inj.Set(fault.VSMScore, fault.Rule{ErrProb: 1})
	var ask struct {
		Count  int               `json:"count"`
		Errors map[string]string `json:"errors"`
	}
	askStart := time.Now()
	code, abody := httpGet(t, ts.URL+"/v1/ask?q=failing+score+"+word)
	if took := time.Since(askStart); code != 200 || took > 5*time.Second {
		t.Fatalf("ask under scoring faults: %d after %v %s", code, took, abody)
	}
	if err := json.Unmarshal(abody, &ask); err != nil {
		t.Fatal(err)
	}
	if ask.Count != 0 {
		t.Errorf("failing scoring still produced %d answers", ask.Count)
	}
	for _, a := range advisors {
		if !strings.Contains(ask.Errors[a], fault.ErrInjected.Error()) {
			t.Errorf("advisor %s error %q, want an injected fault", a, ask.Errors[a])
		}
	}
	inj.Reset()

	// post-chaos answers must be byte-identical to the fault-free control:
	// identical JSON floats means Float64bits-identical scores, so no torn
	// state leaked into retrieval
	for _, p := range probeURLs {
		code, body := httpGet(t, ts.URL+p)
		if code != 200 {
			t.Fatalf("post-chaos %s: %d %s", p, code, body)
		}
		if got := scrubTrace(body); got != want[p] {
			t.Errorf("post-chaos %s diverged from control:\n got %s\nwant %s", p, got, want[p])
		}
	}

	// torn-write check: injected torn writes deliberately violate the
	// atomic-rename protocol, so a post-storm snapshot may be corrupt — but
	// it must be *detectably* corrupt (ErrCorrupt), cleanly absent, or clean.
	// Any other error means corruption escaped the checksum protocol.
	fresh, err := store.Open(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	fingerprints := map[string]string{}
	for _, src := range newSources() {
		if fingerprints[src.Name], err = src.Fingerprint(); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range advisors {
		_, _, err := fresh.Load(a, fingerprints[a])
		switch {
		case err == nil, errors.Is(err, store.ErrNotFound):
		case errors.Is(err, store.ErrCorrupt):
			t.Logf("snapshot %s torn by injection and detected: %v", a, err)
		default:
			t.Errorf("snapshot %s after chaos: %v (undetected torn write)", a, err)
		}
	}

	// boot-under-read-faults: a second server over the same snapshot dir with
	// store.read failing hard must still come up (quarantine + cold rebuild)
	inj.Set(fault.StoreRead, fault.Rule{ErrProb: 1})
	_, svc2, _, err := buildServeHandler(core.New(), serveConfig{
		primaryName: "cuda",
		snapshotDir: snapDir,
		cacheSize:   16,
		maxInflight: 4,
		timeout:     5 * time.Second,
		metrics:     obs.NewRegistry(),
		faults:      inj,
		sources:     newSources(),
	}, logger)
	if err != nil {
		t.Fatalf("boot under store.read faults failed: %v", err)
	}
	inj.Reset()
	if inj.Hits()[fault.StoreRead] == 0 {
		t.Error("warm start under read faults never drew store.read")
	}
	if lc := svc2.Stats().Lifecycle; lc == nil || lc.SnapshotMisses == 0 {
		t.Errorf("read-fault boot should cold-build: %+v", lc)
	}

	// the read-fault boot quarantined every unreadable snapshot and re-saved
	// clean ones (write faults were off), so the store is now fully healed:
	// strict clean loads for every advisor
	healed, err := store.Open(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range advisors {
		if _, man, err := healed.Load(a, fingerprints[a]); err != nil || man.Advisor != a {
			t.Errorf("store not healed after quarantine boot: %s: %v", a, err)
		}
	}

	// full point coverage across the whole run
	hits := inj.Hits()
	for _, p := range fault.Points() {
		if hits[p] == 0 {
			t.Errorf("fault point %s never fired during the suite", p)
		}
	}
	t.Logf("fault hits: %v", hits)
}
