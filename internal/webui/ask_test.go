package webui

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func getPage(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, readBody(t, resp)
}

// TestAskFederated: with a federator installed, the /ask page fans the
// question out and attributes every hit to its advisor. A backend
// parameter left in an old link is ignored.
func TestAskFederated(t *testing.T) {
	s := testServer(t)
	var gotQ string
	var gotK int
	s.SetFederator(func(ctx context.Context, q string, k int) []FederatedHit {
		gotQ, gotK = q, k
		return []FederatedHit{
			{Advisor: "cuda", Section: "5.2", Text: "coalesce global accesses", Score: 2.0, Norm: 1.0},
			{Advisor: "opencl", Section: "3.1", Text: "tune the work group size", Score: 0.8, Norm: 0.9},
		}
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body := getPage(t, ts.URL+"/ask?q="+url.QueryEscape("memory performance")+"&backend=bm25")
	if code != 200 {
		t.Fatalf("ask status %d", code)
	}
	if gotQ != "memory performance" || gotK != 3 {
		t.Fatalf("federator saw q=%q k=%d", gotQ, gotK)
	}
	for _, wantSub := range []string{"cuda", "opencl", "coalesce global accesses", "tune the work group size", "every advisor"} {
		if !strings.Contains(body, wantSub) {
			t.Errorf("ask page missing %q", wantSub)
		}
	}
}

// TestAskStandaloneDegradesToSingleAdvisor: without a federator the page
// still answers, presenting this server's own advisor in the federated
// shape — top 3 answers, norms relative to the best hit.
func TestAskStandaloneDegradesToSingleAdvisor(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body := getPage(t, ts.URL+"/ask?q="+url.QueryEscape("How to increase warp execution efficiency"))
	if code != 200 {
		t.Fatalf("ask status %d", code)
	}
	if !strings.Contains(body, "CUDA Adviser") || !strings.Contains(body, `class="hit"`) {
		t.Errorf("standalone ask did not answer:\n%.400s", body)
	}
	// norms render: the best hit is exactly 1.00
	if !strings.Contains(body, "norm 1.00") {
		t.Errorf("no normalized top answer on standalone ask:\n%.600s", body)
	}
	if n := strings.Count(body, `class="hit"`); n > 3 {
		t.Errorf("standalone ask shows %d hits, want <= 3", n)
	}
}

func TestAskEmptyQueryRedirects(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(ts.URL + "/ask?q=++")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("empty ask: %d, want 303", resp.StatusCode)
	}
}

// TestAskNoResults: a question nobody answers renders the empty state, not
// an error page.
func TestAskNoResults(t *testing.T) {
	s := testServer(t)
	s.SetFederator(func(ctx context.Context, q string, k int) []FederatedHit {
		return nil
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	code, body := getPage(t, ts.URL+"/ask?q=zzzzz")
	if code != 200 || !strings.Contains(body, "No advisor had a relevant sentence") {
		t.Errorf("empty federated ask: %d\n%.300s", code, body)
	}
}

// TestReloadInfoFooter: the lifecycle summary renders in the front-page
// footer when installed, including the hot-reload count and rule diff, and
// is absent both without the hook and when the hook reports nil.
func TestReloadInfoFooter(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, body := getPage(t, ts.URL+"/")
	if strings.Contains(body, `class="lifecycle"`) {
		t.Error("footer rendered without a reload-info hook")
	}

	built := time.Date(2026, 8, 8, 10, 30, 0, 0, time.UTC)
	swap := built.Add(45 * time.Minute)
	info := &ReloadInfo{Origin: "snapshot", BuiltAt: built}
	s.SetReloadInfo(func() *ReloadInfo { return info })

	_, body = getPage(t, ts.URL+"/")
	if !strings.Contains(body, `class="lifecycle"`) || !strings.Contains(body, "corpus: snapshot") {
		t.Fatalf("footer missing after SetReloadInfo:\n%.400s", body)
	}
	if !strings.Contains(body, "2026-08-08 10:30:00") {
		t.Errorf("footer missing build time:\n%s", footerLine(body))
	}
	if strings.Contains(body, "hot reload") {
		t.Errorf("reload-free footer mentions reloads:\n%s", footerLine(body))
	}

	// after a hot swap the footer gains the reload count, time, and diff
	info = &ReloadInfo{Origin: "build", BuiltAt: built, LastSwap: swap, Reloads: 2, LastDiff: "3 added, 1 removed"}
	_, body = getPage(t, ts.URL+"/")
	for _, wantSub := range []string{"corpus: build", "2 hot reload(s)", "11:15:00", "3 added, 1 removed"} {
		if !strings.Contains(body, wantSub) {
			t.Errorf("footer missing %q:\n%s", wantSub, footerLine(body))
		}
	}

	// a hook that reports nil hides the footer again
	info = nil
	_, body = getPage(t, ts.URL+"/")
	if strings.Contains(body, `class="lifecycle"`) {
		t.Error("footer rendered for a nil lifecycle summary")
	}
}

func footerLine(body string) string {
	if i := strings.Index(body, `class="lifecycle"`); i >= 0 {
		end := strings.Index(body[i:], "</p>")
		if end < 0 {
			end = len(body) - i
		}
		return body[i : i+end]
	}
	return "(no footer)"
}

// TestSetAdvisorProviderSwapsPages: pages render against the provider's
// advisor, fall back to the constructed one when the provider returns nil,
// and follow a hot swap on the next request.
func TestSetAdvisorProviderSwapsPages(t *testing.T) {
	s := testServer(t)
	var live *core.Advisor
	s.SetAdvisorProvider(func() *core.Advisor { return live })
	ts := httptest.NewServer(s)
	defer ts.Close()

	// nil provider result: constructed advisor serves
	_, before := getPage(t, ts.URL+"/")
	if !strings.Contains(before, "advising sentences") {
		t.Fatalf("fallback render broken:\n%.300s", before)
	}

	live = emptyAdvisor()
	_, after := getPage(t, ts.URL+"/")
	if !strings.Contains(after, "0 advising sentences") {
		t.Errorf("provider advisor not live after swap:\n%.300s", after)
	}
}

func emptyAdvisor() *core.Advisor {
	return core.New().BuildFromSentences(nil, nil)
}
