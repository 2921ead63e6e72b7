package service

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/nlp"
	"repro/internal/obs"
)

// GET|POST /v1/ask federates one question across every registered advisor:
// the query fans out concurrently, each advisor contributes its top-k
// answers, and the merged list is ranked by per-advisor normalized score.
// Raw scores are comparable only within one advisor's index (different
// vocabularies, different IDF tables), so the merge ranks by Norm = score /
// advisor's best score: each advisor's best answer scores 1.0, and
// normalization is strictly monotone per advisor, so an advisor's answers
// keep their relative order in the merge.

// DefaultFederationK is how many answers each advisor contributes to a
// federated ask when the client does not say (?k=).
const DefaultFederationK = 3

// FederatedAnswer is one advisor's answer inside a federated result.
type FederatedAnswer struct {
	Advisor string  `json:"advisor"`
	Rule    Rule    `json:"rule"`
	Score   float64 `json:"score"` // raw cosine score, advisor-local scale
	Norm    float64 `json:"norm"`  // score / advisor's best score for this ask
}

// AskResponse is the body of GET|POST /v1/ask. Errors maps advisor name to
// failure for advisors that could not answer (overload, timeout, a scoring
// fault); advisors with no matching answers are simply absent.
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
// land in the errors map, and every advisor is asked every time. The ask
// fails as a whole only on a question too long for some advisor
// (ErrQueryTooLong), the client's mistake for every advisor alike; with no
// advisor registered it answers nothing, with no errors.
//
// The ask must finish within Options.Timeout, or by ctx's deadline when ctx
// carries one.
func (s *Service) Ask(ctx context.Context, q string, k int) ([]FederatedAnswer, map[string]string, error) {
	return s.ask(ctx, time.Now().Add(remainingBudget(ctx, s.opts.Timeout)), q, k)
}

// ask is Ask with the whole ask's deadline explicit; no timer runs until a
// leg misses the cache.
func (s *Service) ask(ctx context.Context, deadline time.Time, q string, k int) ([]FederatedAnswer, map[string]string, error) {
	names := s.reg.Names()
	terms := nlp.QueryTerms(q)
	for _, name := range names {
		if err := boundQuery(name, terms); err != nil {
			return nil, nil, err
		}
	}
	start := time.Now()
	defer func() { s.stats.askHist.ObserveDuration(time.Since(start)) }()
	if k <= 0 {
		k = DefaultFederationK
	}
	parent := obs.SpanFrom(ctx)
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
			l := lease{deadline: legDeadline}
			answers, hit, err := s.cachedQuery(ctx, &l, name, q)
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
					Rule:    toRule(*a.Sentence),
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
	// ordering ties by advisor, then rule index, makes the merged ranking
	// deterministic
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
	return merged, errs, nil
}

// handleAsk serves GET and POST /v1/ask (q, optional backend and k — query
// parameters on GET, form or query parameters on POST). A POST body is read
// up to Options.MaxBodySize.
func (s *Service) handleAsk(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodySize)
		// merges POST form body with URL query params; a malformed body
		// leaves what parsed
		var tooBig *http.MaxBytesError
		if err := r.ParseForm(); errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "ask exceeds %d bytes", s.opts.MaxBodySize)
			return
		}
	}
	q := strings.TrimSpace(r.FormValue("q"))
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing query parameter q")
		return
	}
	backend := strings.TrimSpace(r.FormValue("backend"))
	if err := checkBackend(backend); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
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
	// the per-leg shares are computed against the request's one deadline,
	// running from its arrival
	ex := w.(*exchange)
	answers, errs, err := s.ask(r.Context(), ex.start.Add(s.opts.Timeout), q, k)
	if err != nil {
		writeQueryError(w, err)
		return
	}
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
