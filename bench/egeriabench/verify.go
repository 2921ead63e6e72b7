package main

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/maphash"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/htmldoc"
	"repro/internal/nlp"
	"repro/internal/nvvp"
	"repro/internal/service"
)

// Answers are checked by hash: the client hashes each response body with
// its per-request trace ID cut out, and the oracle hashes the body the
// service must have sent. JSON renders every float64 in its shortest
// round-trip form, so equal hashes mean Float64bits-equal scores in the
// same order.
var hashSeed = maphash.MakeSeed()

var traceField = []byte(`,"trace_id":"`)

// bodyHash hashes a response body without its trace_id field.
func bodyHash(body []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	if i := bytes.LastIndex(body, traceField); i >= 0 {
		rest := body[i+len(traceField):]
		if j := bytes.IndexByte(rest, '"'); j >= 0 {
			h.Write(body[:i])
			h.Write(rest[j+1:])
			return h.Sum64()
		}
	}
	h.Write(body)
	return h.Sum64()
}

// encodeBody renders v exactly as the service writes JSON responses.
func encodeBody(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func toAnswers(as []core.Answer) []service.Answer {
	out := make([]service.Answer, len(as))
	for i, a := range as {
		out[i] = service.Answer{
			Rule: service.Rule{
				Index:    a.Sentence.Index,
				Text:     a.Sentence.Text,
				Section:  a.Sentence.Section,
				Selector: a.Sentence.Selector.String(),
			},
			Score: a.Score,
		}
	}
	return out
}

// parseReport accepts both report formats, as the service does.
func parseReport(body []byte) (*nvvp.Report, error) {
	if trimmed := bytes.TrimSpace(body); bytes.HasPrefix(trimmed, []byte("{")) {
		m, err := nvvp.ParseMetricsJSON(trimmed)
		if err != nil {
			return nil, err
		}
		return m.Report(), nil
	}
	return nvvp.Parse(string(body))
}

// servedShards is egeria's -shards default on the one CPU the benchmark
// pins its servers to, so in-process advisors take the same retrieval
// path as the served ones.
const servedShards = 1

// oracle holds in-process builds of every served guide, from the same
// inputs and with the same options as the server, and the body each
// request must receive.
type oracle struct {
	fw       *core.Framework
	advisors map[string]*core.Advisor // every served advisor
	stats    []core.BuildStats        // one per guide, in build order
}

func newOracle(sc *scenario) *oracle {
	o := &oracle{
		fw:       core.New(core.WithShards(servedShards)),
		advisors: make(map[string]*core.Advisor),
	}
	add := func(name string, d *htmldoc.Document, sents []htmldoc.Sentence) {
		a := o.fw.BuildFromSentences(d, sents)
		a.SetName(name)
		o.advisors[name] = a
		o.stats = append(o.stats, a.BuildStats())
	}
	d := htmldoc.Parse(sc.primary)
	add(primaryAdvisor, d, d.Sentences())
	for _, name := range sc.extra {
		g := corpus.Generate(registers[name], sc.seed)
		add(name, g.Doc, g.Sentences)
	}
	return o
}

var registers = map[string]corpus.Register{"opencl": corpus.OpenCL, "xeon": corpus.XeonPhi}

// update applies a new version of a guide to prev the way a server reload
// does: parse the new HTML and rebuild incrementally.
func (o *oracle) update(prev *core.Advisor, html string) (*core.Advisor, core.BuildStats, error) {
	d := htmldoc.Parse(html)
	a, err := o.fw.UpdateFromSentences(prev, d, d.Sentences())
	if err != nil {
		return nil, core.BuildStats{}, err
	}
	return a, a.BuildStats(), nil
}

// checker computes expected body hashes, memoizing per goroutine.
type checker struct {
	o       *oracle
	queries map[string]uint64        // advisor, query -> body hash
	issues  map[string][]core.Answer // issue terms -> answers
}

func (o *oracle) checker() *checker {
	return &checker{o: o, queries: make(map[string]uint64), issues: make(map[string][]core.Answer)}
}

func answer(a *core.Advisor, terms []string) ([]core.Answer, error) {
	return a.QueryTermsBackendCtx(context.Background(), "", terms)
}

// expect returns the hash of the body the service must send for req.
func (c *checker) expect(req request) (uint64, error) {
	adv := c.o.advisors[req.advisor]
	if req.report == nil {
		key := req.advisor + "\x00" + req.query
		if h, ok := c.queries[key]; ok {
			return h, nil
		}
		q := strings.TrimSpace(req.query)
		as, err := answer(adv, nlp.QueryTerms(q))
		if err != nil {
			return 0, err
		}
		body, err := encodeBody(service.QueryResponse{Advisor: req.advisor, Query: q, Count: len(as), Answers: toAnswers(as)})
		if err != nil {
			return 0, err
		}
		h := bodyHash(body)
		c.queries[key] = h
		return h, nil
	}
	rep, err := parseReport(req.report)
	if err != nil {
		return 0, err
	}
	resp := service.ReportResponse{Advisor: req.advisor, Program: rep.Program}
	for _, issue := range rep.Issues() {
		terms := nlp.QueryTerms(issue.Query())
		key := strings.Join(terms, " ")
		as, ok := c.issues[key]
		if !ok {
			if as, err = answer(adv, terms); err != nil {
				return 0, err
			}
			c.issues[key] = as
		}
		resp.Issues = append(resp.Issues, service.IssueAnswers{
			Title: issue.Title, Section: issue.Section, Count: len(as), Answers: toAnswers(as),
		})
	}
	body, err := encodeBody(resp)
	if err != nil {
		return 0, err
	}
	return bodyHash(body), nil
}

// check reports whether a recorded response is a 200 carrying exactly the
// body the service must send.
func (c *checker) check(r record, req request) (bool, error) {
	if r.status != 200 {
		return false, nil
	}
	h, err := c.expect(req)
	if err != nil {
		return false, err
	}
	return h == r.hash, nil
}

// verifyAll checks every record on two goroutines and returns the number of
// wrong answers, with the first error met.
func (o *oracle) verifyAll(recs []record, st *stream) (wrongN int, err error) {
	const workers = 2
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := o.checker()
			var nw int
			var first error
			for i := w; i < len(recs); i += workers {
				ok, err := c.check(recs[i], st.at(recs[i].idx))
				if err != nil && first == nil {
					first = err
				}
				if !ok {
					nw++
				}
			}
			mu.Lock()
			wrongN += nw
			if err == nil {
				err = first
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return wrongN, err
}
