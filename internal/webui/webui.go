// Package webui serves an Egeria advising tool over HTTP, reproducing the
// artifact's web front-end (paper Figs. 6-7): a front page listing the
// advising sentences extracted from the guide with links into the document
// structure, a query box, and a report upload; answers are shown highlighted
// together with the other advising sentences of the same section.
package webui

import (
	"bytes"
	"context"
	"html/template"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/nlp"
	"repro/internal/nvvp"
	"repro/internal/obs"
)

// Observability for the HTML front-end, surfaced on /metricz as webui_*.
var (
	pagesTotal   = obs.Default().Counter("webui_pages_total")
	queriesTotal = obs.Default().Counter("webui_queries_total")
	reportsTotal = obs.Default().Counter("webui_reports_total")
	renderHist   = obs.Default().Histogram("webui_render_micros")
)

// FederatedHit is one advisor's answer inside the federated /ask page —
// the webui's own view of a cross-advisor result, so the package stays
// decoupled from the serving layer's wire types.
type FederatedHit struct {
	Advisor string
	Section string
	Text    string
	Score   float64 // raw cosine score, advisor-local scale
	Norm    float64 // score / that advisor's best score
}

// ReloadInfo is the corpus-lifecycle summary shown in the front page footer:
// where the serving advisor came from and when it last changed under traffic.
type ReloadInfo struct {
	Origin   string    // "snapshot" (warm start) or "build"
	BuiltAt  time.Time // when the serving advisor was built
	LastSwap time.Time // zero until the first hot reload
	Reloads  int64     // hot reloads since boot
	LastDiff string    // rule diff of the last swap, e.g. "2 added, 1 removed"
}

// Server wraps an Advisor with HTTP handlers.
type Server struct {
	advisor    *core.Advisor
	title      string
	mux        *http.ServeMux
	querier    func(ctx context.Context, q string) []core.Answer         // optional shared retrieval path
	federator  func(ctx context.Context, q string, k int) []FederatedHit // optional cross-advisor ask
	provider   func() *core.Advisor                                      // optional live-advisor source
	reloadInfo func() *ReloadInfo                                        // optional lifecycle summary
}

// New creates a Server for an advisor. title labels the pages
// (e.g. "CUDA Adviser").
func New(advisor *core.Advisor, title string) *Server {
	s := &Server{advisor: advisor, title: title, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/ask", s.handleAsk)
	s.mux.HandleFunc("/report", s.handleReport)
	s.mux.HandleFunc("/doc", s.handleDoc)
	return s
}

// SetQuerier routes retrieval through f instead of calling the advisor
// directly — the hook that lets the HTML UI share a serving layer's query
// cache and admission control. The context carries the request's trace
// span (if sampled), so shared-path queries appear in the request's trace
// tree. Call before serving traffic.
func (s *Server) SetQuerier(f func(ctx context.Context, q string) []core.Answer) {
	s.querier = f
}

// SetFederator routes the /ask page through f, typically a serving layer's
// cross-advisor federation (each advisor's k best answers, merged by
// normalized score). Without a federator, /ask degrades to this server's
// single advisor. Call before serving traffic.
func (s *Server) SetFederator(f func(ctx context.Context, q string, k int) []FederatedHit) {
	s.federator = f
}

// SetAdvisorProvider makes every page render against f() instead of the
// advisor captured at construction — the hook that lets a hot-swapped
// registry advisor reach the HTML UI without rebuilding the Server. f must
// be safe for concurrent use (registry lookups are). Call before serving
// traffic.
func (s *Server) SetAdvisorProvider(f func() *core.Advisor) {
	s.provider = f
}

// SetReloadInfo installs the lifecycle summary shown in the front-page
// footer (warm-start origin, last hot reload). nil results hide the footer.
// Call before serving traffic.
func (s *Server) SetReloadInfo(f func() *ReloadInfo) {
	s.reloadInfo = f
}

// adv returns the advisor to render: the live one when a provider is
// installed, else the one captured at construction.
func (s *Server) adv() *core.Advisor {
	if s.provider != nil {
		if a := s.provider(); a != nil {
			return a
		}
	}
	return s.advisor
}

// query answers q through the shared querier when one is installed; the
// standalone fallback goes through the annotation path (normalize once,
// score the terms) like the serving layer does.
func (s *Server) query(ctx context.Context, q string) []core.Answer {
	queriesTotal.Inc()
	if s.querier != nil {
		return s.querier(ctx, q)
	}
	adv := s.adv()
	return adv.Retrieve(ctx, nlp.QueryTerms(q), adv.Threshold())
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	pagesTotal.Inc()
	s.mux.ServeHTTP(w, r)
}

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>{{.Title}}</title>
<style>
body { font-family: sans-serif; margin: 2em; max-width: 60em; }
.section { margin-top: 1em; font-weight: bold; }
.rule { margin: .3em 0 .3em 1.5em; }
.selector { color: #888; font-size: .8em; }
form { margin: 1em 0; }
textarea { width: 100%; height: 8em; }
</style></head><body>
<h1>{{.Title}}</h1>
<p>{{.Count}} advising sentences extracted from {{.Total}} document sentences
(ratio {{printf "%.1f" .Ratio}}).</p>
<form action="/query" method="GET">
  <input type="text" name="q" size="60" placeholder="Ask an optimization question">
  <input type="submit" value="Search">
</form>
<form action="/ask" method="GET">
  <input type="text" name="q" size="60" placeholder="Ask every advisor at once">
  <input type="submit" value="Ask all">
</form>
<form action="/report" method="POST">
  <p>Or paste an NVVP analysis report:</p>
  <textarea name="report"></textarea><br>
  <input type="submit" value="Upload">
</form>
<p><a href="/doc">browse the full document</a></p>
{{with .Reload}}<p class="lifecycle">corpus: {{.Origin}}{{if not .BuiltAt.IsZero}}, built {{.BuiltAt.Format "2006-01-02 15:04:05 MST"}}{{end}}{{if .Reloads}} &middot; {{.Reloads}} hot reload(s), last at {{.LastSwap.Format "15:04:05"}}{{with .LastDiff}} ({{.}}){{end}}{{end}}</p>{{end}}
{{range .Groups}}
<div class="section"><a href="/doc#{{.Anchor}}">{{.Section}}</a></div>
{{range .Rules}}<div class="rule">{{.Text}} <span class="selector">[{{.Selector}}]</span></div>
{{end}}{{end}}
</body></html>`))

var answerTmpl = template.Must(template.New("answer").Parse(`<!DOCTYPE html>
<html><head><title>{{.Title}} — answers</title>
<style>
body { font-family: sans-serif; margin: 2em; max-width: 60em; }
.issue { margin-top: 1.5em; font-weight: bold; }
.section { margin-top: 1em; font-style: italic; }
.hit { background: #ffec8b; margin: .3em 0 .3em 1.5em; padding: .15em; }
.ctx { color: #444; margin: .3em 0 .3em 1.5em; }
.score { color: #888; font-size: .8em; }
</style></head><body>
<h1>{{.Title}}</h1>
<p><a href="/">back to the rule list</a></p>
{{range .Blocks}}
<div class="issue">{{.Heading}}</div>
{{if .Empty}}<p>No relevant sentences found.</p>{{end}}
{{range .Items}}
<div class="section"><a href="/doc#{{.Anchor}}">{{.Section}}</a></div>
<div class="hit">{{.Text}} <span class="score">(score {{printf "%.2f" .Score}})</span></div>
{{range .Context}}<div class="ctx">{{.}}</div>
{{end}}{{end}}{{end}}
</body></html>`))

type ruleGroup struct {
	Section string
	Anchor  string
	Rules   []core.AdvisingSentence
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	adv := s.adv()
	rules := adv.Rules()
	bySection := map[string][]core.AdvisingSentence{}
	var order []string
	for _, rule := range rules {
		if _, ok := bySection[rule.Section]; !ok {
			order = append(order, rule.Section)
		}
		bySection[rule.Section] = append(bySection[rule.Section], rule)
	}
	sort.Strings(order)
	var groups []ruleGroup
	for _, sec := range order {
		groups = append(groups, ruleGroup{Section: sec, Anchor: anchorFor(sec), Rules: bySection[sec]})
	}
	var reload *ReloadInfo
	if s.reloadInfo != nil {
		reload = s.reloadInfo()
	}
	data := struct {
		Title  string
		Count  int
		Total  int
		Ratio  float64
		Groups []ruleGroup
		Reload *ReloadInfo
	}{s.title, len(rules), adv.SentenceCount(), adv.CompressionRatio(), groups, reload}
	render(w, indexTmpl, data)
}

type answerItem struct {
	Section string
	Anchor  string
	Text    string
	Score   float64
	Context []string
}

type answerBlock struct {
	Heading string
	Empty   bool
	Items   []answerItem
}

func (s *Server) answersToBlock(heading string, answers []core.Answer) answerBlock {
	b := answerBlock{Heading: heading, Empty: len(answers) == 0}
	for _, a := range answers {
		item := answerItem{
			Section: a.Sentence.Section,
			Anchor:  anchorFor(a.Sentence.Section),
			Text:    a.Sentence.Text,
			Score:   a.Score,
		}
		for _, c := range s.adv().ContextOf(a) {
			item.Context = append(item.Context, c.Text)
		}
		if len(item.Context) > 4 {
			item.Context = item.Context[:4]
		}
		b.Items = append(b.Items, item)
	}
	return b
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	if q == "" {
		http.Redirect(w, r, "/", http.StatusSeeOther)
		return
	}
	answers := s.query(r.Context(), q)
	data := struct {
		Title  string
		Blocks []answerBlock
	}{s.title, []answerBlock{s.answersToBlock("Query: "+q, answers)}}
	render(w, answerTmpl, data)
}

var askTmpl = template.Must(template.New("ask").Parse(`<!DOCTYPE html>
<html><head><title>{{.Title}} — federated answers</title>
<style>
body { font-family: sans-serif; margin: 2em; max-width: 60em; }
.hit { background: #ffec8b; margin: .3em 0 .3em 1.5em; padding: .15em; }
.advisor { color: #06c; font-weight: bold; margin-right: .5em; }
.section { color: #444; font-style: italic; }
.score { color: #888; font-size: .8em; }
</style></head><body>
<h1>{{.Title}} — every advisor</h1>
<p><a href="/">back to the rule list</a></p>
<div class="issue">Ask: {{.Query}}</div>
{{if not .Hits}}<p>No advisor had a relevant sentence.</p>{{end}}
{{range .Hits}}
<div class="hit"><span class="advisor">{{.Advisor}}</span>{{.Text}}
<span class="score">(norm {{printf "%.2f" .Norm}}, score {{printf "%.2f" .Score}})</span><br>
<span class="section">{{.Section}}</span></div>
{{end}}
</body></html>`))

// handleAsk renders the federated cross-advisor view. With a federator
// installed the question fans out to every registered advisor; standalone,
// it degrades to this server's single advisor presented in the same shape.
func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	if q == "" {
		http.Redirect(w, r, "/", http.StatusSeeOther)
		return
	}
	var hits []FederatedHit
	if s.federator != nil {
		hits = s.federator(r.Context(), q, 3)
	} else {
		answers := s.query(r.Context(), q)
		if len(answers) > 3 {
			answers = answers[:3]
		}
		for _, a := range answers {
			norm := 0.0
			if best := answers[0].Score; best > 0 {
				norm = a.Score / best
			}
			hits = append(hits, FederatedHit{
				Advisor: s.title,
				Section: a.Sentence.Section,
				Text:    a.Sentence.Text,
				Score:   a.Score,
				Norm:    norm,
			})
		}
	}
	data := struct {
		Title string
		Query string
		Hits  []FederatedHit
	}{s.title, q, hits}
	render(w, askTmpl, data)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a report", http.StatusMethodNotAllowed)
		return
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	report, err := nvvp.ParseReport(r.FormValue("report"))
	if err != nil {
		http.Error(w, "could not parse report: "+err.Error(), http.StatusBadRequest)
		return
	}
	reportsTotal.Inc()
	var blocks []answerBlock
	for _, issue := range report.Issues() {
		// each issue is answered through the shared query path, so report
		// uploads also benefit from (and warm) the serving cache
		blocks = append(blocks, s.answersToBlock("Issue: "+issue.Title, s.query(r.Context(), issue.Query())))
	}
	if len(blocks) == 0 {
		blocks = []answerBlock{{Heading: "Report " + report.Program, Empty: true}}
	}
	data := struct {
		Title  string
		Blocks []answerBlock
	}{s.title, blocks}
	render(w, answerTmpl, data)
}

var docTmpl = template.Must(template.New("doc").Parse(`<!DOCTYPE html>
<html><head><title>{{.Title}} — document</title>
<style>
body { font-family: sans-serif; margin: 2em; max-width: 60em; }
h2 { margin-top: 1.2em; }
.sent { display: inline; }
.adv { background: #ffec8b; }
</style></head><body>
<h1>{{.Title}} — full document</h1>
<p><a href="/">back to the rule list</a></p>
{{range .Sections}}
<h2 id="{{.Anchor}}">{{.Heading}}</h2>
<p>{{range .Sentences}}<span class="sent{{if .Advising}} adv{{end}}">{{.Text}}</span> {{end}}</p>
{{end}}
</body></html>`))

type docSentence struct {
	Text     string
	Advising bool
}

type docSection struct {
	Anchor    string
	Heading   string
	Sentences []docSentence
}

// handleDoc renders the whole document with the advising sentences
// highlighted in place — the "richer context" view the paper's loader
// structure enables (§3.2), reachable from the answer pages' section links.
func (s *Server) handleDoc(w http.ResponseWriter, r *http.Request) {
	var sections []docSection
	bySection := map[string]int{}
	adv := s.adv()
	for i := 0; i < adv.SentenceCount(); i++ {
		sec := adv.SectionOf(i)
		idx, ok := bySection[sec]
		if !ok {
			idx = len(sections)
			bySection[sec] = idx
			sections = append(sections, docSection{
				Anchor:  anchorFor(sec),
				Heading: sec,
			})
		}
		sections[idx].Sentences = append(sections[idx].Sentences, docSentence{
			Text:     adv.SentenceText(i),
			Advising: adv.IsAdvising(i),
		})
	}
	data := struct {
		Title    string
		Sections []docSection
	}{s.title, sections}
	render(w, docTmpl, data)
}

// anchorFor derives a stable fragment identifier from a section path, so
// answer pages can deep-link into the document browser.
func anchorFor(section string) string {
	var b strings.Builder
	b.WriteString("sec-")
	for _, r := range section {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

func render(w http.ResponseWriter, t *template.Template, data any) {
	// render to a buffer first: template errors become clean 500s, and a
	// client that hangs up mid-transfer cannot trigger a spurious error
	// response on an already-started body
	start := time.Now()
	defer func() { renderHist.ObserveDuration(time.Since(start)) }()
	var buf bytes.Buffer
	if err := t.Execute(&buf, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = buf.WriteTo(w) // client disconnects are not server errors
}
