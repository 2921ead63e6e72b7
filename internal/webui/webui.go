// Package webui serves an Egeria advising tool over HTTP, reproducing the
// artifact's web front-end (paper Figs. 6-7): a front page listing the
// advising sentences extracted from the guide with links into the document
// structure, a query box, and a report upload; answers are shown highlighted
// together with the other advising sentences of the same section.
//
// The pages are a view over a service.Service: they render the advisor its
// registry serves now, answer through its cache and admission control, and
// are served inside its request envelope (see service.Service.Handle).
package webui

import (
	"bytes"
	"errors"
	"fmt"
	"html/template"
	"io"
	"mime"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/service"
)

// Observability for the HTML front-end, surfaced on /metricz as webui_*.
var (
	pagesTotal   = obs.Default().Counter("webui_pages_total")
	queriesTotal = obs.Default().Counter("webui_queries_total")
	reportsTotal = obs.Default().Counter("webui_reports_total")
	renderHist   = obs.Default().Histogram("webui_render_micros")
)

// Server renders one advisor of a service's registry as HTML pages.
type Server struct {
	svc     *service.Service
	advisor string // the registry name of the advisor the pages show
	title   string
}

// New mounts the pages of the named advisor on svc, at /, /query, /ask,
// /report and /doc, so a service serves one advisor's pages. title labels
// the pages (e.g. "CUDA Adviser"). The /ask page asks every advisor of the
// registry.
func New(svc *service.Service, advisor, title string) *Server {
	s := &Server{svc: svc, advisor: advisor, title: title}
	for pattern, h := range map[string]http.HandlerFunc{
		"/{$}":    s.handleIndex,
		"/query":  s.handleQuery,
		"/ask":    s.handleAsk,
		"/report": s.handleReport,
		"/doc":    s.handleDoc,
	} {
		svc.Handle(pattern, page(h))
	}
	return s
}

func page(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		pagesTotal.Inc()
		h(w, r)
	}
}

// adv returns the advisor the registry serves now, or writes a 404 and
// returns nil.
func (s *Server) adv(w http.ResponseWriter) *core.Advisor {
	a, ok := s.svc.Registry().Get(s.advisor)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown advisor %q", s.advisor), http.StatusNotFound)
	}
	return a
}

// fail answers a lookup error with the status /v1 would give it.
func fail(w http.ResponseWriter, err error) {
	http.Error(w, err.Error(), service.StatusOf(err))
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
	adv := s.adv(w)
	if adv == nil {
		return
	}
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
	// the footer shows the advisor's lifecycle, when one is attached
	var reload *lifecycle.AdvisorState
	if lm := s.svc.Lifecycle(); lm != nil {
		st := lm.State()
		for i := range st.Advisors {
			if st.Advisors[i].Advisor == s.advisor {
				reload = &st.Advisors[i]
				break
			}
		}
	}
	data := struct {
		Title  string
		Count  int
		Total  int
		Ratio  float64
		Groups []ruleGroup
		Reload *lifecycle.AdvisorState
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

func answersToBlock(adv *core.Advisor, heading string, answers []core.Answer) answerBlock {
	b := answerBlock{Heading: heading, Empty: len(answers) == 0}
	for _, a := range answers {
		item := answerItem{
			Section: a.Sentence.Section,
			Anchor:  anchorFor(a.Sentence.Section),
			Text:    a.Sentence.Text,
			Score:   a.Score,
		}
		for _, c := range adv.ContextOf(a) {
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
	adv := s.adv(w)
	if adv == nil {
		return
	}
	queriesTotal.Inc()
	answers, _, err := s.svc.CachedQuery(r.Context(), s.advisor, q)
	if err != nil {
		fail(w, err)
		return
	}
	data := struct {
		Title  string
		Blocks []answerBlock
	}{s.title, []answerBlock{answersToBlock(adv, "Query: "+q, answers)}}
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
{{if not .Hits}}<p>No advisor had a relevant sentence.</p>{{end}}{{range $advisor, $err := .Errors}}<p class="error">{{$advisor}} could not answer: {{$err}}</p>{{end}}
{{range .Hits}}
<div class="hit"><span class="advisor">{{.Advisor}}</span>{{.Rule.Text}}
<span class="score">(norm {{printf "%.2f" .Norm}}, score {{printf "%.2f" .Score}})</span><br>
<span class="section">{{.Rule.Section}}</span></div>
{{end}}
</body></html>`))

// handleAsk renders the federated cross-advisor view: the question fans
// out to every registered advisor, each contributes its 3 best answers, and
// an advisor that could not answer (overload, timeout, a scoring fault) is
// named with its error. A question too long to ask gets the status /v1
// gives it.
func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	if q == "" {
		http.Redirect(w, r, "/", http.StatusSeeOther)
		return
	}
	hits, errs, err := s.svc.Ask(r.Context(), q, service.DefaultFederationK)
	if err != nil {
		fail(w, err)
		return
	}
	data := struct {
		Title  string
		Query  string
		Hits   []service.FederatedAnswer
		Errors map[string]string // advisor → why it could not answer
	}{s.title, q, hits, errs}
	render(w, askTmpl, data)
}

// reportForm reads the report a form posts, url-encoded or as
// multipart/form-data, where it may be a field or a file part. The service
// caps the body, encoding included (see service.Service.Handle), and a
// multipart form may keep that many bytes in memory, so no upload spills to
// a temporary file.
func (s *Server) reportForm(r *http.Request) (string, error) {
	if mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); mt != "multipart/form-data" {
		if err := r.ParseForm(); err != nil {
			return "", err
		}
		return r.FormValue("report"), nil
	}
	if err := r.ParseMultipartForm(s.svc.MaxBodySize()); err != nil {
		return "", err
	}
	defer r.MultipartForm.RemoveAll()
	f, _, err := r.FormFile("report")
	if errors.Is(err, http.ErrMissingFile) {
		return r.FormValue("report"), nil
	}
	if err != nil {
		return "", err
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	return string(b), err
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a report", http.StatusMethodNotAllowed)
		return
	}
	text, err := s.reportForm(r)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("report exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	adv := s.adv(w)
	if adv == nil {
		return
	}
	// the service refuses what POST /v1/{advisor}/report refuses, before
	// any lookup, and answers every issue through its cache
	report, answers, err := s.svc.Report(r.Context(), s.advisor, text)
	if err != nil {
		fail(w, err)
		return
	}
	reportsTotal.Inc()
	queriesTotal.Add(int64(len(answers)))
	var blocks []answerBlock
	for i, issue := range report.Issues() {
		blocks = append(blocks, answersToBlock(adv, "Issue: "+issue.Title, answers[i]))
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
	adv := s.adv(w)
	if adv == nil {
		return
	}
	var sections []docSection
	bySection := map[string]int{}
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
