package webui

import (
	"bytes"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/nvvp"
	"repro/internal/obs"
	"repro/internal/service"
)

func testAdvisor(t testing.TB, reg corpus.Register) *core.Advisor {
	t.Helper()
	g := corpus.GenerateSized(reg, 250, 0.25, 4)
	return core.New().BuildFromSentences(g.Doc, g.Sentences)
}

// testService serves a small CUDA guide as "cuda", and one advisor per
// extra register, from one service with the "cuda" pages mounted. Its
// metrics registry is its own, so cache counters count only its lookups.
func testService(t testing.TB, regs ...corpus.Register) *service.Service {
	t.Helper()
	reg := service.NewRegistry()
	for _, r := range append([]corpus.Register{corpus.CUDA}, regs...) {
		reg.Add(strings.ToLower(r.String()), testAdvisor(t, r))
	}
	svc := service.New(reg, service.Options{Metrics: obs.NewRegistry()})
	New(svc, "cuda", "CUDA Adviser")
	return svc
}

func TestWebUIPages(t *testing.T) {
	s := testService(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("index status %d", resp.StatusCode)
	}
	if !strings.Contains(body, "CUDA Adviser") || !strings.Contains(body, "advising sentences") {
		t.Errorf("index body:\n%s", body[:min(400, len(body))])
	}
	if !strings.Contains(body, `action="/query"`) || !strings.Contains(body, `action="/report"`) {
		t.Error("index missing query/report forms (Fig. 6 surface)")
	}
	// one scoring model: the query form offers no backend to pick
	if strings.Contains(body, "<select") || strings.Contains(body, `name="backend"`) {
		t.Error("index still offers a backend select")
	}
}

func TestQueryEndpoint(t *testing.T) {
	s := testService(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape("How to increase warp execution efficiency"))
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if !strings.Contains(body, "class=\"hit\"") {
		t.Errorf("no highlighted answers in query page:\n%s", body[:min(600, len(body))])
	}

	// a backend parameter left in an old link is ignored: the page and its
	// heading are the plain query's
	resp, err = http.Get(ts.URL + "/query?q=" + url.QueryEscape("How to increase warp execution efficiency") + "&backend=bm25")
	if err != nil {
		t.Fatal(err)
	}
	if withBackend := readBody(t, resp); withBackend != body {
		t.Errorf("backend parameter changed the query page:\n%s", withBackend[:min(600, len(withBackend))])
	}
	if !strings.Contains(body, `<div class="issue">Query: How to increase warp execution efficiency</div>`) {
		t.Errorf("query heading:\n%s", body[:min(600, len(body))])
	}
}

func TestQueryEmptyRedirects(t *testing.T) {
	s := testService(t)
	req := httptest.NewRequest("GET", "/query?q=", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusSeeOther {
		t.Errorf("empty query status %d", rec.Code)
	}
}

func TestQueryNoResults(t *testing.T) {
	s := testService(t)
	req := httptest.NewRequest("GET", "/query?q=zyzzyva+quux", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "No relevant sentences found") {
		t.Errorf("no-result page wrong: %d\n%s", rec.Code, rec.Body.String()[:min(400, rec.Body.Len())])
	}
}

func TestReportUpload(t *testing.T) {
	s := testService(t)
	text, err := nvvp.Synthesize("norm")
	if err != nil {
		t.Fatal(err)
	}
	form := url.Values{"report": {text}}
	req := httptest.NewRequest("POST", "/report", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("report status %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	if !strings.Contains(body, "Register Usage") || !strings.Contains(body, "Divergent Branches") {
		t.Error("report answers missing issue headings")
	}
}

func TestReportUploadJSONMetrics(t *testing.T) {
	s := testService(t)
	metrics := `{
		"program": "mykernel",
		"warp_execution_efficiency": 0.5,
		"occupancy": 0.9,
		"global_load_efficiency": 0.9,
		"branch_divergence": 0.05,
		"dram_utilization": 0.4,
		"issue_slot_utilization": 0.8,
		"low_throughput_inst_fraction": 0.05,
		"transfer_compute_ratio": 0.1
	}`
	form := url.Values{"report": {metrics}}
	req := httptest.NewRequest("POST", "/report", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("metrics report status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "Low Warp Execution Efficiency") {
		t.Error("metrics-derived issue missing from the answer page")
	}
}

func TestReportUploadErrors(t *testing.T) {
	s := testService(t)
	// GET not allowed
	req := httptest.NewRequest("GET", "/report", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /report status %d", rec.Code)
	}
	// malformed report
	form := url.Values{"report": {"not a report"}}
	req = httptest.NewRequest("POST", "/report", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad report status %d", rec.Code)
	}
}

// multipartReport encodes text as the multipart/form-data field "report",
// or as a file part of that name (what curl -F report=@file sends), and
// returns the body and its content type.
func multipartReport(t *testing.T, text string, asFile bool) (*bytes.Buffer, string) {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	var part io.Writer
	var err error
	if asFile {
		part, err = mw.CreateFormFile("report", "report.txt")
	} else {
		part, err = mw.CreateFormField("report")
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(part, text); err != nil {
		t.Fatal(err)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return &body, mw.FormDataContentType()
}

// TestReportUploadEncodings: the report page reads a report posted
// url-encoded, as a multipart field or as a multipart file part, and
// renders the same page for each. A multipart upload just under the body
// cap stays in memory, so it is answered with no usable temporary
// directory, and one over the cap gets 413.
func TestReportUploadEncodings(t *testing.T) {
	s := testService(t)
	text, err := nvvp.Synthesize("norm")
	if err != nil {
		t.Fatal(err)
	}
	post := func(body io.Reader, contentType string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/report", body)
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	want := post(strings.NewReader(url.Values{"report": {text}}.Encode()), "application/x-www-form-urlencoded")
	if want.Code != 200 {
		t.Fatalf("url-encoded report: %d %s", want.Code, want.Body)
	}
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	const limit = 1 << 20 // service.Options.MaxBodySize's default
	padded := text + strings.Repeat("\n", limit-len(text)-1024)
	for _, tc := range []struct {
		name, text string
		asFile     bool
	}{
		{"field", text, false},
		{"file", text, true},
		{"field under the cap", padded, false},
		{"file under the cap", padded, true},
	} {
		got := post(multipartReport(t, tc.text, tc.asFile))
		if got.Code != 200 || got.Body.String() != want.Body.String() {
			t.Errorf("multipart %s: %d %.300s, want the url-encoded page", tc.name, got.Code, got.Body)
		}
	}
	over := strings.Repeat("x", limit+1)
	for _, asFile := range []bool{false, true} {
		got := post(multipartReport(t, over, asFile))
		if got.Code != http.StatusRequestEntityTooLarge || !strings.Contains(got.Body.String(), "report exceeds 1048576 bytes") {
			t.Errorf("multipart report over the cap (file %v): %d %.200s, want 413", asFile, got.Code, got.Body)
		}
	}
}

// countingReader counts the bytes its reader hands out.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestFormReadsStopAtBodyCap: a form posted to the report page or to
// POST /v1/ask is read up to the service's body cap, encoding included, and
// answered 413, where net/http alone would read 10 MB of form.
func TestFormReadsStopAtBodyCap(t *testing.T) {
	s := testService(t)
	const limit = 1 << 20 // service.Options.MaxBodySize's default
	pad := strings.Repeat("x", 1_280_000)
	for _, tc := range []struct{ path, form, want string }{
		{"/report", "report=" + pad, "report exceeds 1048576 bytes"},
		{"/v1/ask", "q=memory+coalescing&pad=" + pad, "ask exceeds 1048576 bytes"},
	} {
		body := &countingReader{r: strings.NewReader(tc.form)}
		req := httptest.NewRequest("POST", tc.path, body)
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("POST %s of %d bytes: %d %.200s, want 413 %q", tc.path, len(tc.form), rec.Code, rec.Body, tc.want)
		}
		if body.n > limit+1 {
			t.Errorf("POST %s read %d body bytes, want at most %d", tc.path, body.n, limit+1)
		}
	}
}

func TestAnswerPagesDeepLinkIntoDoc(t *testing.T) {
	s := testService(t)
	req := httptest.NewRequest("GET", "/query?q="+url.QueryEscape("warp execution efficiency"), nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	body := rec.Body.String()
	if !strings.Contains(body, `href="/doc#sec-`) {
		t.Error("answer page sections do not deep-link into the document browser")
	}
	// the referenced anchor must exist on the doc page
	start := strings.Index(body, `href="/doc#`)
	end := strings.Index(body[start+11:], `"`)
	anchor := body[start+11 : start+11+end]
	dreq := httptest.NewRequest("GET", "/doc", nil)
	drec := httptest.NewRecorder()
	s.ServeHTTP(drec, dreq)
	if !strings.Contains(drec.Body.String(), `id="`+anchor+`"`) {
		t.Errorf("anchor %q missing from the doc page", anchor)
	}
}

func TestDocBrowserPage(t *testing.T) {
	s := testService(t)
	req := httptest.NewRequest("GET", "/doc", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("doc status %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "full document") {
		t.Error("doc page missing title")
	}
	if !strings.Contains(body, `class="sent adv"`) {
		t.Error("no highlighted advising sentences on the doc page")
	}
	if !strings.Contains(body, `class="sent"`) {
		t.Error("no plain sentences on the doc page")
	}
}

func TestNotFound(t *testing.T) {
	s := testService(t)
	req := httptest.NewRequest("GET", "/missing", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("status %d", rec.Code)
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// lookups counts the service's cache lookups, hits and misses.
func lookups(svc *service.Service) int64 {
	st := svc.Stats()
	return st.CacheHits + st.CacheMisses
}

// TestSetQuerierRoutesRetrieval: the query page and every issue of an
// uploaded report are lookups of the service, through its cache.
func TestSetQuerierRoutesRetrieval(t *testing.T) {
	s := testService(t)
	req := httptest.NewRequest("GET", "/query?q="+url.QueryEscape("memory latency"), nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("query status %d", rec.Code)
	}
	if got := lookups(s); got != 1 {
		t.Errorf("query page made %d lookups, want 1", got)
	}
	// report issues must flow through the same path
	text, err := nvvp.Synthesize("norm")
	if err != nil {
		t.Fatal(err)
	}
	report, err := nvvp.ParseReport(text)
	if err != nil {
		t.Fatal(err)
	}
	form := url.Values{"report": {text}}
	req = httptest.NewRequest("POST", "/report", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("report status %d", rec.Code)
	}
	if got, want := lookups(s), int64(1+len(report.Issues())); got != want {
		t.Errorf("%d lookups after the report, want %d: one per issue", got, want)
	}
}
