package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/htmldoc"
	"repro/internal/nlp"
	"repro/internal/nvvp"
	"repro/internal/obs"
)

// hostileTexts carry every byte class the JSON writer treats specially:
// the escapes encoding/json writes, and the bytes it passes through when
// HTML escaping is off.
var hostileTexts = []string{
	`quote " backslash \ slash /`,
	"named escapes \b\f\n\r\t",
	"other C0 bytes \x00\x01\x0b\x1f and DEL \x7f",
	"invalid UTF-8 \xff\xfe and a truncated rune \xe2\x80",
	"separators \u2028 and \u2029",
	"html <script>alert('x')</script> & <b>",
	"non-ASCII словами 漢字 é",
}

// hostileGuide is a guide whose sentence texts and section paths carry
// every hostile string, half of the sentences in no section; variant
// prefixes every text so two versions can be told apart.
func hostileGuide(variant string) (*htmldoc.Document, []htmldoc.Sentence) {
	d := htmldoc.FromBlocks("hostile", nil)
	var sents []htmldoc.Sentence
	for i, h := range hostileTexts {
		d.Sections = append(d.Sections, htmldoc.Section{Number: strconv.Itoa(i + 1), Title: h, Level: 1})
		sents = append(sents,
			htmldoc.Sentence{Text: variant + "You should use shared memory " + h, Section: i},
			htmldoc.Sentence{Text: variant + "Programmers should avoid global memory " + h, Section: -1})
	}
	return d, sents
}

// hostileAdvisor is a cold build of hostileGuide(variant), in which Stage I
// keeps every sentence.
func hostileAdvisor(t testing.TB, variant string) *core.Advisor {
	t.Helper()
	d, sents := hostileGuide(variant)
	a := core.New(core.WithParallelism(1)).BuildFromSentences(d, sents)
	if n := len(a.Rules()); n != len(sents) {
		t.Fatalf("Stage I kept %d of %d hostile sentences", n, len(sents))
	}
	return a
}

// encodeRef renders v as writeJSON does: encoding/json, HTML escaping off.
func encodeRef(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err) // every score is finite
	}
	return buf.Bytes()
}

// retrieve is the uncached oracle: the registry's advisor scores q itself,
// so a wrong cache key cannot hide behind the cache it would fill.
func retrieve(svc *Service, advisor, q string) ([]core.Answer, error) {
	adv, ok := svc.reg.Get(advisor)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAdvisor, advisor)
	}
	return adv.Retrieve(context.Background(), nlp.QueryTerms(q), adv.Threshold()), nil
}

// checkQuery reports how a response to GET /v1/{advisor}/query?q=q (with
// &backend= when backend is set) differs from its oracle: a 200 whose body
// is encoding/json of the QueryResponse over the uncached answers to q,
// echoing the backend.
func checkQuery(svc *Service, rec *httptest.ResponseRecorder, advisor, backend, q string) error {
	q = strings.TrimSpace(q)
	answers, err := retrieve(svc, advisor, q)
	if err != nil {
		return fmt.Errorf("oracle: %v", err)
	}
	return sameBody(rec, QueryResponse{Advisor: advisor, Query: q, Backend: backend, Count: len(answers),
		Answers: toAnswers(answers), TraceID: rec.Header().Get("X-Trace-Id")})
}

// checkReport is checkQuery for POST /v1/{advisor}/report with body: the
// oracle is encoding/json of its ReportResponse, "issues":null included for
// a report with no issues.
func checkReport(svc *Service, rec *httptest.ResponseRecorder, advisor string, body []byte) error {
	report, err := nvvp.ParseReport(string(body))
	if err != nil {
		return fmt.Errorf("oracle: %v", err)
	}
	resp := ReportResponse{Advisor: advisor, Program: report.Program, TraceID: rec.Header().Get("X-Trace-Id")}
	for _, issue := range report.Issues() {
		answers, err := retrieve(svc, advisor, issue.Query())
		if err != nil {
			return fmt.Errorf("oracle: %v", err)
		}
		resp.Issues = append(resp.Issues, IssueAnswers{Title: issue.Title, Section: issue.Section,
			Count: len(answers), Answers: toAnswers(answers)})
	}
	return sameBody(rec, resp)
}

// sameBody reports how rec differs from a 200 carrying encodeRef(want).
func sameBody(rec *httptest.ResponseRecorder, want any) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
	}
	if w := encodeRef(want); !bytes.Equal(rec.Body.Bytes(), w) {
		return fmt.Errorf("body differs from encoding/json:\n got %s\nwant %s", rec.Body, w)
	}
	return nil
}

// sameError reports how rec differs from the error response writeError
// gives status and msg: encoding/json of the ErrorResponse echoing the
// trace ID.
func sameError(rec *httptest.ResponseRecorder, status int, msg string) error {
	if rec.Code != status {
		return fmt.Errorf("status %d, want %d: %s", rec.Code, status, rec.Body)
	}
	if w := encodeRef(ErrorResponse{Error: msg, TraceID: rec.Header().Get("X-Trace-Id")}); !bytes.Equal(rec.Body.Bytes(), w) {
		return fmt.Errorf("error body:\n got %s\nwant %s", rec.Body, w)
	}
	return nil
}

// issuesReport is a text report with n issues whose queries differ in a
// word of the e2e guide, so each one misses on a cold cache.
func issuesReport(t testing.TB, n int) []byte {
	t.Helper()
	var b strings.Builder
	b.WriteString("=== R ===\n-- 1. Memory --\n")
	for i, w := range guideWords(t, e2eAdvisor(t), n) {
		fmt.Fprintf(&b, "Optimization: issue %d\nreduce memory latency %s\n", i, w)
	}
	return []byte(b.String())
}

// serve runs one request through the service and returns its recorder.
func serve(svc *Service, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

// edgeScores are the float64s around encoding/json's switch between fixed
// and exponent notation, plus the paper's threshold and the extremes.
func edgeScores() []float64 {
	var out []float64
	for _, f := range []float64{1e-6, 1e21, math.SmallestNonzeroFloat64, 0.15, 1} {
		out = append(out, f, math.Nextafter(f, 0))
	}
	return out
}

func TestAnswerJSONMatchesEncodingJSON(t *testing.T) {
	adv := hostileAdvisor(t, "")
	for _, rule := range adv.Rules() {
		// the same sentence built outside an advisor carries no prefix and
		// is rendered on the spot
		bare := core.AdvisingSentence{Index: rule.Index, Text: rule.Text, Section: rule.Section, Selector: rule.Selector}
		for _, score := range edgeScores() {
			for _, s := range []core.AdvisingSentence{rule, bare} {
				a := core.Answer{Sentence: &s, Score: score}
				want := bytes.TrimSuffix(encodeRef(toAnswers([]core.Answer{a})[0]), []byte("\n"))
				if got := a.AppendJSON(nil); !bytes.Equal(got, want) {
					t.Fatalf("score %v:\n got %s\nwant %s", score, got, want)
				}
			}
		}
	}
}

func TestQueryAndReportBodiesMatchEncodingJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Add("h", hostileAdvisor(t, ""))
	svc := New(reg, Options{})
	for _, h := range append(hostileTexts, "", "no match at all") {
		q := "shared memory " + h
		for _, backend := range []string{"", "vsm"} {
			rec := serve(svc, http.MethodGet, "/v1/h/query?q="+url.QueryEscape(q)+"&backend="+backend, nil)
			if err := checkQuery(svc, rec, "h", backend, q); err != nil {
				t.Fatalf("query %q, backend %q: %v", q, backend, err)
			}
		}
		// a hostile program, section and title (line breaks would end the
		// report line); the issue-less report writes "issues":null
		h = strings.NewReplacer("\n", " ", "\r", " ").Replace(h)
		for _, report := range []string{
			fmt.Sprintf("=== R ===\nProgram: %s\n-- 1. %s --\nOptimization: %s\nuse shared memory\n", h, h, h),
			fmt.Sprintf("=== R ===\nProgram: %s\n-- 1. Overview --\nnothing to report\n", h),
		} {
			rec := serve(svc, http.MethodPost, "/v1/h/report", []byte(report))
			if err := checkReport(svc, rec, "h", []byte(report)); err != nil {
				t.Fatalf("report %q: %v", report, err)
			}
		}
	}
}

// TestAnswersKeepScoringAdvisorText: answers carry the JSON of the advisor
// that scored them, so writing them after a hot swap cannot pair v1's
// scores with v2's text.
func TestAnswersKeepScoringAdvisorText(t *testing.T) {
	reg := NewRegistry()
	reg.Add("h", hostileAdvisor(t, "v1 "))
	svc := New(reg, Options{})
	answers, _, err := svc.CachedQuery(context.Background(), "h", "shared memory")
	if err != nil || len(answers) == 0 {
		t.Fatalf("%d answers, err %v", len(answers), err)
	}
	svc.Reload("h", hostileAdvisor(t, "v2 "))
	got := append(append([]byte("{"), appendAnswers(nil, answers)[1:]...), "}\n"...)
	want := encodeRef(struct {
		Count   int      `json:"count"`
		Answers []Answer `json:"answers"`
	}{len(answers), toAnswers(answers)})
	if !bytes.Equal(got, want) || !bytes.Contains(got, []byte(`"v1 `)) || bytes.Contains(got, []byte(`"v2 `)) {
		t.Fatalf("v1's answers written after the swap:\n got %s\nwant %s", got, want)
	}
	rec := serve(svc, http.MethodGet, "/v1/h/query?q=shared+memory", nil)
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"v2 `)) || bytes.Contains(rec.Body.Bytes(), []byte(`"v1 `)) {
		t.Fatalf("a query after the swap did not answer from v2: %s", rec.Body)
	}
}

// TestPrefixesSurviveSnapshotAndUpdate: an advisor loaded from a snapshot
// and one reached by an incremental update write the same bytes as a cold
// build of the same sentences.
func TestPrefixesSurviveSnapshotAndUpdate(t *testing.T) {
	cold := hostileAdvisor(t, "")
	var snap bytes.Buffer
	if err := cold.Save(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadAdvisor(&snap)
	if err != nil {
		t.Fatal(err)
	}
	// the previous version lacks the first section's sentences and has one
	// of its own; the update annotates the difference only
	d, sents := hostileGuide("")
	fw := core.New(core.WithParallelism(1))
	prev := fw.BuildFromSentences(d, append([]htmldoc.Sentence{{Text: "You should pad arrays.", Section: 0}}, sents[2:]...))
	updated, err := fw.UpdateFromSentences(prev, d, sents)
	if err != nil {
		t.Fatal(err)
	}
	if reused := updated.BuildStats().Reused; reused != len(sents)-2 {
		t.Fatalf("update reused %d of %d sentences", reused, len(sents))
	}
	for name, a := range map[string]*core.Advisor{"loaded": loaded, "updated": updated} {
		if len(a.Rules()) != len(cold.Rules()) {
			t.Fatalf("%s: %d rules, cold build %d", name, len(a.Rules()), len(cold.Rules()))
		}
		for i, r := range a.Rules() {
			if r != cold.Rules()[i] {
				t.Fatalf("%s rule %d differs from the cold build's", name, i)
			}
		}
		for _, q := range []string{"shared memory", "avoid global memory", hostileTexts[3]} {
			got := appendAnswers(nil, a.Query(q))
			if want := appendAnswers(nil, cold.Query(q)); !bytes.Equal(got, want) {
				t.Fatalf("%s query %q:\n got %s\nwant %s", name, q, got, want)
			}
		}
	}
}

// TestBodyWritersConcurrent: concurrent query and report handlers share the
// body pool; every body still equals its encoding/json oracle (run under
// -race).
func TestBodyWritersConcurrent(t *testing.T) {
	reg := NewRegistry()
	reg.Add("cuda", e2eAdvisor(t))
	h := hostileAdvisor(t, "")
	reg.Add("h", h)
	svc := New(reg, Options{})
	words := guideWords(t, h, 4)
	var reports [][]byte
	for _, p := range nvvp.Programs() {
		text, err := nvvp.Synthesize(p)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, []byte(text))
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var err error
				if (w+i)%3 == 0 {
					q := fmt.Sprintf("reduce memory latency %s %s", hostileTexts[i%len(hostileTexts)], words[i%4])
					rec := serve(svc, http.MethodGet, "/v1/h/query?q="+url.QueryEscape(q), nil)
					err = checkQuery(svc, rec, "h", "", q)
				} else {
					body := reports[(w+i)%len(reports)]
					rec := serve(svc, http.MethodPost, "/v1/cuda/report", body)
					err = checkReport(svc, rec, "cuda", body)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestReportIssueCap: a report with more issues than MaxBatch is refused
// with a 400 before any retrieval runs.
func TestReportIssueCap(t *testing.T) {
	reg := NewRegistry()
	reg.Add("cuda", e2eAdvisor(t))
	svc := New(reg, Options{MaxBatch: 2})
	before := svc.Stats().CacheMisses
	rec := serve(svc, http.MethodPost, "/v1/cuda/report", issuesReport(t, 3))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "3 issues exceeds limit 2") {
		t.Fatalf("3-issue report with MaxBatch 2: %d %s", rec.Code, rec.Body)
	}
	if after := svc.Stats().CacheMisses; after != before {
		t.Fatalf("a refused report ran %d retrievals", after-before)
	}
	if rec := serve(svc, http.MethodPost, "/v1/cuda/report", issuesReport(t, 2)); rec.Code != http.StatusOK {
		t.Fatalf("2-issue report with MaxBatch 2: %d %s", rec.Code, rec.Body)
	}
}

// TestReportRefusals: Report and POST /v1/{advisor}/report refuse the same
// reports with the same status and message, before any lookup.
func TestReportRefusals(t *testing.T) {
	reg := NewRegistry()
	reg.Add("cuda", e2eAdvisor(t))
	svc := New(reg, Options{MaxBatch: 2, MaxBodySize: 4 << 10, Metrics: obs.NewRegistry()})
	cases := []struct {
		advisor, text string
		status        int
		msg           string
	}{
		{"nope", "x", http.StatusNotFound, `unknown advisor "nope"`},
		{"cuda", strings.Repeat("x", 4<<10+1), http.StatusRequestEntityTooLarge, "report exceeds 4096 bytes"},
		{"cuda", "not a report", http.StatusBadRequest, "could not parse report: "},
		{"cuda", string(issuesReport(t, 3)), http.StatusBadRequest, "report of 3 issues exceeds limit 2"},
	}
	for _, c := range cases {
		rec := serve(svc, http.MethodPost, "/v1/"+c.advisor+"/report", []byte(c.text))
		var body ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: error body %q: %v", c.msg, rec.Body, err)
		}
		if rec.Code != c.status || !strings.HasPrefix(body.Error, c.msg) {
			t.Errorf("/v1 refusal: %d %q, want %d %q", rec.Code, body.Error, c.status, c.msg)
		}
		_, _, err := svc.Report(context.Background(), c.advisor, c.text)
		if err == nil || StatusOf(err) != rec.Code || err.Error() != body.Error {
			t.Errorf("Report refusal %v (status %d), want %d %q", err, StatusOf(err), rec.Code, body.Error)
		}
	}
	if st := svc.Stats(); st.CacheHits+st.CacheMisses != 0 {
		t.Errorf("refused reports made %d lookups", st.CacheHits+st.CacheMisses)
	}
}
