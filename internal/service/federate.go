package service

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/nlp"
	"repro/internal/obs"
	"repro/internal/vsm"
)

// GET|POST /v1/ask federates one question across every registered advisor:
// the query fans out concurrently, each advisor contributes its top-k
// answers, and the merged list is ranked by per-advisor normalized score.
// Raw scores are comparable only within one advisor's index (different
// vocabularies, different IDF tables — and under BM25, different scales),
// so the merge ranks by Norm = score / advisor's best score: each advisor's
// best answer scores 1.0, and normalization is strictly monotone per
// advisor, so an advisor's answers keep their relative order in the merge.

// DefaultFederationK is how many answers each advisor contributes to a
// federated ask when the client does not say (?k=).
const DefaultFederationK = 3

// FederatedAnswer is one advisor's answer inside a federated result.
type FederatedAnswer struct {
	Advisor string  `json:"advisor"`
	Rule    Rule    `json:"rule"`
	Score   float64 `json:"score"` // raw backend score, advisor-local scale
	Norm    float64 `json:"norm"`  // score / advisor's best score for this ask
}

// AskResponse is the body of GET|POST /v1/ask. Errors maps advisor name to
// failure for advisors that could not answer (overload, timeout); advisors
// with no matching answers are simply absent.
type AskResponse struct {
	Query   string            `json:"query"`
	Backend string            `json:"backend,omitempty"`
	K       int               `json:"k"`
	Count   int               `json:"count"`
	Answers []FederatedAnswer `json:"answers"`
	Errors  map[string]string `json:"errors,omitempty"`
	TraceID string            `json:"trace_id,omitempty"`
}

// Ask fans q out to every registered advisor concurrently through the
// cached query path, keeps each advisor's k best answers, and merges them
// into one list ranked by normalized score (ties: advisor name, then rule
// index — deterministic for identical registries). Per-advisor failures
// land in the errors map; an ask only fails entirely when no advisor is
// registered (empty results, empty errors).
//
// The ask must finish within Options.Timeout, or by ctx's deadline when ctx
// carries one.
func (s *Service) Ask(ctx context.Context, backend, q string, k int) ([]FederatedAnswer, map[string]string) {
	return s.ask(ctx, time.Now().Add(remainingBudget(ctx, s.opts.Timeout)), backend, q, k)
}

// ask is Ask with the whole ask's deadline explicit; no timer runs until a
// leg misses the cache.
func (s *Service) ask(ctx context.Context, deadline time.Time, backend, q string, k int) ([]FederatedAnswer, map[string]string) {
	start := time.Now()
	defer func() { s.stats.recordAsk(time.Since(start)) }()
	if k <= 0 {
		k = DefaultFederationK
	}
	parent := obs.SpanFrom(ctx)
	names := s.reg.Names()
	perAdvisor := make([][]FederatedAnswer, len(names))
	errTexts := make([]string, len(names))
	// every leg runs concurrently, so each gets the same share: the
	// remaining request budget minus a merge reserve (see askShare). A
	// leg's deadline can only shrink ctx's own, never extend it.
	legDeadline := time.Now().Add(askShare(time.Until(deadline)))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			span := parent.StartChild("ask." + name)
			defer span.Finish()
			// an open breaker skips the advisor outright: the leg reports
			// ErrBreakerOpen in the errors map instead of burning its
			// budget timing out against a failing advisor
			br := s.breakers.get(name)
			if !br.Allow() {
				bspan := span.StartChild("breaker")
				bspan.SetAttr("state", br.State().String())
				bspan.Finish()
				span.SetAttr("outcome", "breaker-open")
				errTexts[i] = ErrBreakerOpen.Error()
				return
			}
			l := lease{deadline: legDeadline}
			answers, hit, err := s.cachedQuery(ctx, &l, name, backend, q)
			l.release(s)
			if err != nil {
				span.SetAttr("outcome", "error")
				errTexts[i] = err.Error()
				return
			}
			span.SetAttr("cache", map[bool]string{true: "hit", false: "miss"}[hit])
			span.SetAttrInt("answers", len(answers))
			if len(answers) == 0 {
				return
			}
			if len(answers) > k {
				answers = answers[:k] // already ranked best-first
			}
			best := answers[0].Score // core answers are sorted, best first
			out := make([]FederatedAnswer, len(answers))
			for j, a := range answers {
				norm := 0.0
				if best > 0 {
					norm = a.Score / best
				}
				out[j] = FederatedAnswer{
					Advisor: name,
					Rule:    toRule(a.Sentence),
					Score:   a.Score,
					Norm:    norm,
				}
			}
			perAdvisor[i] = out
		}(i, name)
	}
	wg.Wait()
	var merged []FederatedAnswer
	errs := map[string]string{}
	for i, name := range names {
		merged = append(merged, perAdvisor[i]...)
		if errTexts[i] != "" {
			errs[name] = errTexts[i]
		}
	}
	// stable sort: equal Norm keeps the advisor-name order built above, and
	// the explicit tiebreakers make the merged ranking deterministic
	sort.SliceStable(merged, func(a, b int) bool {
		x, y := merged[a], merged[b]
		if x.Norm != y.Norm {
			return x.Norm > y.Norm
		}
		if x.Advisor != y.Advisor {
			return x.Advisor < y.Advisor
		}
		return x.Rule.Index < y.Rule.Index
	})
	if len(errs) == 0 {
		errs = nil
	}
	return merged, errs
}

// handleAsk serves GET and POST /v1/ask (q, optional backend and k — query
// parameters on GET, form or query parameters on POST).
func (s *Service) handleAsk(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		_ = r.ParseForm() // merges POST form body with URL query params
	}
	q := strings.TrimSpace(r.FormValue("q"))
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing query parameter q")
		return
	}
	backend := strings.TrimSpace(r.FormValue("backend"))
	if !vsm.ValidBackend(backend) {
		writeError(w, http.StatusBadRequest, "%v: %q", vsm.ErrUnknownBackend, backend)
		return
	}
	k := DefaultFederationK
	if kq := strings.TrimSpace(r.FormValue("k")); kq != "" {
		n, err := strconv.Atoi(kq)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "parameter k must be a positive integer")
			return
		}
		k = n
	}
	// an over-long query is the client's mistake for every advisor alike,
	// so it fails the ask as a whole instead of filling the errors map
	terms := nlp.QueryTerms(q)
	for _, name := range s.reg.Names() {
		if err := boundQuery(name, backend, terms); err != nil {
			writeQueryError(w, err)
			return
		}
	}
	// the per-leg shares are computed against the request's one deadline,
	// running from its arrival
	ex := w.(*exchange)
	answers, errs := s.ask(r.Context(), ex.start.Add(s.opts.Timeout), backend, q, k)
	writeJSON(w, http.StatusOK, AskResponse{
		Query:   q,
		Backend: backend,
		K:       k,
		Count:   len(answers),
		Answers: answers,
		Errors:  errs,
		TraceID: ex.traceID,
	})
}
