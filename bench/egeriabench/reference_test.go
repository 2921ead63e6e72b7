package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"
)

func TestReferenceServerIsDeterministic(t *testing.T) {
	a, b := newRefServer(), newRefServer()
	for i := 0; i < 50; i++ {
		q := refQuery(i)
		if q != refQuery(i) {
			t.Fatalf("refQuery(%d) changed between calls", i)
		}
		ra, rb := a.answer(q), b.answer(q)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("two reference servers answered %q differently", q)
		}
		if len(ra.Answers) != refAnswers {
			t.Fatalf("%q: %d answers, want %d", q, len(ra.Answers), refAnswers)
		}
		for k := 1; k < len(ra.Answers); k++ {
			if ra.Answers[k].Score > ra.Answers[k-1].Score {
				t.Fatalf("%q: answers not in descending score order", q)
			}
		}
	}
}

func TestReferenceServerServesJSON(t *testing.T) {
	rs := newRefServer()
	rec := httptest.NewRecorder()
	rs.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ref?q="+url.QueryEscape(refQuery(3)), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var got refResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rs.answer(refQuery(3))) {
		t.Errorf("served %+v, want the answer to the query", got)
	}
	rec = httptest.NewRecorder()
	rs.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/other", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", rec.Code)
	}
}

// TestTimingsScaleWithTheReference checks the normalisation: with the
// reference at twice its nominal speed around a slice, that slice's
// throughput halves and its latencies and CPU time double; with refBuild
// at half its nominal speed around a boot, the boot time halves.
func TestTimingsScaleWithTheReference(t *testing.T) {
	refAt := func(rps float64) slice {
		return slice{dur: time.Second, ok: int(rps)}
	}
	lat := make([]float64, 2000)
	for i := range lat {
		lat[i] = 1 + float64(i%10)/10
	}
	eg := slice{dur: time.Second, ok: 2000, latMs: lat, ticks: 50}
	lr := &loadResult{
		egeria: []slice{eg, eg},
		ref:    []slice{refAt(2 * refNominalRPS), refAt(2 * refNominalRPS), refAt(2 * refNominalRPS)},
	}
	boots := &bootTimes{s: []float64{0.3, 0.1, 0.2}, probeMs: []float64{2 * refBuildNominalMs, 2 * refBuildNominalMs, 2 * refBuildNominalMs, 2 * refBuildNominalMs}}
	ms := loadMetrics(lr, boots, 50)
	for _, tc := range []struct {
		name string
		want float64
	}{
		{"throughput_rps", 1000},
		{"latency_p50_ms", 2 * 1.4},
		{"client.latency_p99_ms", 2 * 1.9},
		{"server_cpu_us_per_req", 2 * 50 * 1e4 / 2000},
		{"setup_s", 0.1}, // refBuild took twice its nominal time
		{"client.raw_setup_s", 0.2},
		{"rss_mb", 50},
		{"client.raw_throughput_rps", 2000},
		{"host.reference_rps", 2 * refNominalRPS},
	} {
		if got := metricValue(ms, tc.name); math.Abs(got-tc.want) > 1e-9*tc.want {
			t.Errorf("%s = %v, want %v", tc.name, got, tc.want)
		}
	}
	// the speed around a slice is the mean of the reference on either side
	lr.ref[0] = refAt(refNominalRPS)
	if f := speeds(lr); f[0] != 1.5 || f[1] != 2 {
		t.Errorf("speeds = %v, want [1.5 2]", f)
	}
}
