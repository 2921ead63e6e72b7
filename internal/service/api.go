package service

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jsonw"
	"repro/internal/lifecycle"
)

// The /v1 wire types. Marshaling with encoding/json is deterministic (struct
// field order), so identical answers marshal to byte-identical bodies — the
// property the cache relies on for reproducible responses.

// AdvisorInfo is one element of GET /v1/advisors.
type AdvisorInfo struct {
	Name             string    `json:"name"`
	Title            string    `json:"title,omitempty"`
	Sentences        int       `json:"sentences"`
	Rules            int       `json:"rules"`
	CompressionRatio float64   `json:"compression_ratio"`
	BuiltAt          time.Time `json:"built_at"`
}

// Rule is one advising sentence in GET /v1/{advisor}/rules.
type Rule struct {
	Index    int    `json:"index"`
	Text     string `json:"text"`
	Section  string `json:"section,omitempty"`
	Selector string `json:"selector"`
}

// RulesResponse is the body of GET /v1/{advisor}/rules.
type RulesResponse struct {
	Advisor string `json:"advisor"`
	Count   int    `json:"count"`
	Rules   []Rule `json:"rules"`
}

// Answer is one Stage-II recommendation.
type Answer struct {
	Rule
	Score float64 `json:"score"`
}

// QueryResponse is the body of GET /v1/{advisor}/query. Cache status is
// reported in the X-Cache header, not the body, so repeated identical
// queries stay byte-identical. TraceID is per-request (it also appears in
// the X-Trace-Id header) and keys a sampled span tree on /tracez.
// Backend is present only when the client selected one explicitly, so the
// default path marshals byte-identically to a backend-unaware response.
type QueryResponse struct {
	Advisor string   `json:"advisor"`
	Query   string   `json:"query"`
	Backend string   `json:"backend,omitempty"`
	Count   int      `json:"count"`
	Answers []Answer `json:"answers"`
	TraceID string   `json:"trace_id,omitempty"`
}

// BackendsResponse is the body of GET /v1/backends.
type BackendsResponse struct {
	Default  string   `json:"default"`
	Backends []string `json:"backends"`
}

// IssueAnswers pairs one profiler issue with its recommendations in
// POST /v1/{advisor}/report.
type IssueAnswers struct {
	Title   string   `json:"title"`
	Section string   `json:"section,omitempty"`
	Count   int      `json:"count"`
	Answers []Answer `json:"answers"`
}

// ReportResponse is the body of POST /v1/{advisor}/report.
type ReportResponse struct {
	Advisor string         `json:"advisor"`
	Program string         `json:"program,omitempty"`
	Issues  []IssueAnswers `json:"issues"`
	TraceID string         `json:"trace_id,omitempty"`
}

// ReloadResponse is the body of POST /v1/admin/reload: which advisor was
// reloaded ("" = all), how long the rebuild+swap took, and the lifecycle
// state after the swap.
type ReloadResponse struct {
	Advisor       string          `json:"advisor,omitempty"`
	DurationMicro int64           `json:"duration_micros"`
	State         lifecycle.State `json:"state"`
	TraceID       string          `json:"trace_id,omitempty"`
}

// ErrorResponse is every non-2xx body. TraceID carries the request's trace
// ID so a failure in a log or bug report links straight to its /tracez
// entry.
type ErrorResponse struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
}

func toRule(s core.AdvisingSentence) Rule {
	return Rule{
		Index:    s.Index,
		Text:     s.Text,
		Section:  s.Section,
		Selector: s.Selector.String(),
	}
}

func toAnswers(answers []core.Answer) []Answer {
	out := make([]Answer, len(answers))
	for i, a := range answers {
		out[i] = Answer{Rule: toRule(a.Sentence), Score: a.Score}
	}
	return out
}

// The query and report bodies are the hot path's output, so they are not
// marshalled: each handler appends its body into a pooled buffer, field by
// field in the order of QueryResponse and ReportResponse, and every answer
// appends the JSON its advisor rendered once (core.Answer.AppendJSON).
// encoding/json over those types stays the reference the tests compare
// every byte against; the other bodies keep writeJSON.

// maxPooledBody caps the buffers bodyPool keeps: a bigger one (a report
// with many long answers) is left to the collector, so one outsized body
// does not pin its memory in the pool.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

func getBody() []byte { return (*bodyPool.Get().(*[]byte))[:0] }

// appendAnswers appends the ,"count":N,"answers":[…] members shared by
// QueryResponse and IssueAnswers.
func appendAnswers(b []byte, answers []core.Answer) []byte {
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(len(answers)), 10)
	b = append(b, `,"answers":[`...)
	for i, a := range answers {
		if i > 0 {
			b = append(b, ',')
		}
		b = a.AppendJSON(b)
	}
	return append(b, ']')
}

// Header values every query or report response shares. net/http only reads
// a response's header values (Add appends past a one-element slice's
// capacity into a new array), so one slice can serve every response and
// spare each a []string allocation.
var (
	jsonContentType = []string{"application/json; charset=utf-8"}
	cacheHit        = []string{"hit"}
	cacheMiss       = []string{"miss"}
)

// writeBody closes a query or report body with the request's trace ID,
// writes it as a 200 with its Content-Length, and returns the buffer to the
// pool. (A body abandoned for an error is left to the collector.) With the
// length known, net/http writes the headers and the body in one write
// instead of chunking a body of more than 2 KB.
func writeBody(w http.ResponseWriter, b []byte, traceID string) {
	if traceID != "" {
		b = jsonw.AppendString(append(b, `,"trace_id":`...), traceID)
	}
	b = append(b, "}\n"...)
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(b))}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledBody {
		bodyPool.Put(&b)
	}
}

func advisorInfo(name string, a *core.Advisor) AdvisorInfo {
	return AdvisorInfo{
		Name:             name,
		Title:            a.Title(),
		Sentences:        a.SentenceCount(),
		Rules:            len(a.Rules()),
		CompressionRatio: a.CompressionRatio(),
		BuiltAt:          a.BuiltAt().UTC(),
	}
}
