package webui

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/service"
)

func getPage(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, readBody(t, resp)
}

// TestAskFederated: the /ask page fans the question out to every advisor of
// the service and attributes every hit to its advisor. A backend parameter
// left in an old link is ignored.
func TestAskFederated(t *testing.T) {
	s := testService(t, corpus.OpenCL)
	ts := httptest.NewServer(s)
	defer ts.Close()

	const q = "memory performance"
	code, body := getPage(t, ts.URL+"/ask?q="+url.QueryEscape(q)+"&backend=bm25")
	if code != 200 {
		t.Fatalf("ask status %d", code)
	}
	answers, errs, err := s.Ask(context.Background(), q, service.DefaultFederationK)
	if err != nil || len(errs) != 0 {
		t.Fatalf("ask: %v, advisor errors: %v", err, errs)
	}
	by := map[string]int{}
	for _, a := range answers {
		by[a.Advisor]++
	}
	if by["cuda"] == 0 || by["opencl"] == 0 {
		t.Fatalf("both advisors should answer %q: %v", q, by)
	}
	if n := strings.Count(body, `class="hit"`); n != len(answers) {
		t.Errorf("ask page shows %d hits, want %d", n, len(answers))
	}
	for _, wantSub := range []string{`<span class="advisor">cuda</span>`, `<span class="advisor">opencl</span>`, "every advisor"} {
		if !strings.Contains(body, wantSub) {
			t.Errorf("ask page missing %q", wantSub)
		}
	}
}

// TestAskStandaloneDegradesToSingleAdvisor: a service of one advisor still
// answers the page in the federated shape — top 3 answers, norms relative
// to the best hit.
func TestAskStandaloneDegradesToSingleAdvisor(t *testing.T) {
	s := testService(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body := getPage(t, ts.URL+"/ask?q="+url.QueryEscape("How to increase warp execution efficiency"))
	if code != 200 {
		t.Fatalf("ask status %d", code)
	}
	if !strings.Contains(body, "CUDA Adviser") || !strings.Contains(body, `class="hit"`) {
		t.Errorf("one-advisor ask did not answer:\n%.400s", body)
	}
	// norms render: the best hit is exactly 1.00
	if !strings.Contains(body, "norm 1.00") {
		t.Errorf("no normalized top answer on one-advisor ask:\n%.600s", body)
	}
	if n := strings.Count(body, `class="hit"`); n > 3 {
		t.Errorf("one-advisor ask shows %d hits, want <= 3", n)
	}
}

func TestAskEmptyQueryRedirects(t *testing.T) {
	s := testService(t)
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
	s := testService(t, corpus.OpenCL)
	ts := httptest.NewServer(s)
	defer ts.Close()
	code, body := getPage(t, ts.URL+"/ask?q=zzzzz")
	if code != 200 || !strings.Contains(body, "No advisor had a relevant sentence") {
		t.Errorf("empty federated ask: %d\n%.300s", code, body)
	}
	if strings.Contains(body, "could not answer") {
		t.Errorf("an answered ask names failed advisors:\n%.300s", body)
	}
	// a question too long to ask is refused as GET /v1/ask refuses it
	var words []string
	for i := 0; i < 1100; i++ {
		words = append(words, fmt.Sprintf("w%d", i))
	}
	code, body = getPage(t, ts.URL+"/ask?q="+strings.Join(words, "+"))
	if want := "service: query too long: 1100 terms exceed 1024"; code != http.StatusBadRequest || !strings.Contains(body, want) {
		t.Errorf("over-long ask: %d, want 400 %q:\n%.600s", code, want, body)
	}
}

// TestReloadInfoFooter: with a lifecycle manager attached, the front-page
// footer shows where the advisor came from, and after a hot reload the
// reload count and the rule diff; without a manager there is no footer.
func TestReloadInfoFooter(t *testing.T) {
	reg := service.NewRegistry()
	seed := int64(4)
	mgr := lifecycle.New(lifecycle.Options{
		Register: reg.Add,
		Swap:     reg.Replace,
		Metrics:  obs.NewRegistry(),
	})
	err := mgr.AddSource(lifecycle.Source{
		Name:        "cuda",
		Fingerprint: func() (string, error) { return fmt.Sprint(seed), nil },
		Build: func(ctx context.Context, prev *core.Advisor) (*core.Advisor, error) {
			g := corpus.GenerateSized(corpus.CUDA, 250, 0.25, seed)
			return core.New().UpdateFromSentencesCtx(ctx, prev, g.Doc, g.Sentences)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.WarmStart(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := service.New(reg, service.Options{Metrics: obs.NewRegistry()})
	New(s, "cuda", "CUDA Adviser")
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, body := getPage(t, ts.URL+"/")
	if strings.Contains(body, `class="lifecycle"`) {
		t.Error("footer rendered without a lifecycle manager")
	}

	s.SetLifecycle(mgr)
	_, body = getPage(t, ts.URL+"/")
	if !strings.Contains(body, `class="lifecycle"`) || !strings.Contains(body, "corpus: build") {
		t.Fatalf("footer missing after SetLifecycle:\n%.400s", body)
	}
	state := mgr.State().Advisors[0]
	if built := state.BuiltAt.Format("2006-01-02 15:04:05"); !strings.Contains(body, built) {
		t.Errorf("footer missing build time %s:\n%s", built, footerLine(body))
	}
	if strings.Contains(body, "hot reload") {
		t.Errorf("reload-free footer mentions reloads:\n%s", footerLine(body))
	}

	// after a hot swap the footer gains the reload count, time, and diff
	seed = 5
	if err := mgr.ReloadNow(context.Background(), "cuda"); err != nil {
		t.Fatal(err)
	}
	state = mgr.State().Advisors[0]
	if state.LastDiff == "" || state.LastDiff == "0 added, 0 removed" {
		t.Fatalf("reload changed no rule: %q", state.LastDiff)
	}
	_, body = getPage(t, ts.URL+"/")
	for _, wantSub := range []string{"corpus: build", "1 hot reload(s)", state.LastSwap.Format("15:04:05"), "(" + state.LastDiff + ")"} {
		if !strings.Contains(body, wantSub) {
			t.Errorf("footer missing %q:\n%s", wantSub, footerLine(body))
		}
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

// TestSetAdvisorProviderSwapsPages: pages render the advisor the registry
// serves now, so a hot swap through the service reaches them on the next
// request.
func TestSetAdvisorProviderSwapsPages(t *testing.T) {
	s := testService(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	a, _ := s.Registry().Get("cuda")
	_, before := getPage(t, ts.URL+"/")
	if want := fmt.Sprintf("<p>%d advising sentences", len(a.Rules())); len(a.Rules()) == 0 || !strings.Contains(before, want) {
		t.Fatalf("front page before the swap lacks %q:\n%.300s", want, before)
	}

	s.Reload("cuda", emptyAdvisor())
	_, after := getPage(t, ts.URL+"/")
	if !strings.Contains(after, "<p>0 advising sentences") {
		t.Errorf("swapped advisor not live:\n%.300s", after)
	}
}

func emptyAdvisor() *core.Advisor {
	return core.New().BuildFromSentences(nil, nil)
}
