// Golden accuracy regression suite: freezes the pipeline's measured
// accuracy into checked-in golden files so an innocent-looking refactor
// that shifts Stage-I selection or Stage-II ranking fails loudly, with a
// diff showing exactly which metric moved.
//
// Regenerate after an *intentional* accuracy change with:
//
//	go test ./internal/eval/ -run Golden -update
//
// and review the golden diff like any other code change.
package eval_test

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/selectors"
	"repro/internal/service"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current pipeline's output")

// compareGolden diffs got against testdata/<name>, rewriting the file under
// -update. Line-oriented so a failure names the first drifted line.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if string(want) == got {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("%s drifted at line %d:\n  golden: %s\n  got:    %s\n(rerun with -update only if the accuracy change is intentional)", name, i+1, w, g)
		}
	}
	t.Fatalf("%s drifted (length)", name)
}

// TestGoldenStageISelectors freezes the per-selector and assembled
// precision/recall/F of advising-sentence recognition (the paper's Table 8)
// for every register. Raw TP/FP/FN counts are integers, so the file is
// exact — no float tolerance games.
func TestGoldenStageISelectors(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Stage-I advising-sentence recognition, per selector and assembled.\n")
	b.WriteString("# register selector TP FP FN P R F\n")
	for _, reg := range []corpus.Register{corpus.CUDA, corpus.OpenCL, corpus.XeonPhi} {
		cfg := selectors.DefaultConfig()
		if reg == corpus.XeonPhi {
			cfg = selectors.XeonTunedConfig() // the §4.3 tuning the paper applies
		}
		for _, row := range experiments.Table8(reg, cfg) {
			p := row.PRF
			fmt.Fprintf(&b, "%s %s TP=%d FP=%d FN=%d P=%.6f R=%.6f F=%.6f\n",
				reg, strings.ReplaceAll(row.Method, " ", "_"), p.TP, p.FP, p.FN, p.Precision, p.Recall, p.F)
		}
	}
	compareGolden(t, "stage1_selectors.golden", b.String())
}

// TestGoldenStageIIAnswers freezes Stage-II retrieval for the paper's
// Table 6 query workload: the top-3 answer indices with bit-exact cosine
// scores (strconv.FormatFloat round-trips float64 exactly) and the number
// of answers above the 0.15 recommendation threshold. Any change to
// tokenization, TF-IDF weighting, or ranking shows up here.
func TestGoldenStageIIAnswers(t *testing.T) {
	g := corpus.Generate(corpus.CUDA, experiments.Seed)
	adv := core.New().BuildFromSentences(g.Doc, g.Sentences)
	var b strings.Builder
	b.WriteString("# Stage-II top-3 answers per Table 6 query: rule index, exact cosine score.\n")
	for _, q := range corpus.CUDAQueries() {
		answers := adv.Query(q.Text)
		fmt.Fprintf(&b, "%s/%s answers=%d", q.Report, q.Subtopic, len(answers))
		for i, a := range answers {
			if i == 3 {
				break
			}
			fmt.Fprintf(&b, " %d:%s", a.Sentence.Index, strconv.FormatFloat(a.Score, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	compareGolden(t, "stage2_answers.golden", b.String())
}

var traceIDRe = regexp.MustCompile(`"trace_id":"[^"]*"`)

// TestGoldenQueryHTTP freezes the byte-exact /v1/query response body on the
// default path (no backend parameter), so no change to the serving stack
// can move the wire format unnoticed. Only the per-request trace ID is
// scrubbed; everything else, down to field order and float
// rendering, must match the golden bytes.
func TestGoldenQueryHTTP(t *testing.T) {
	g := corpus.Generate(corpus.CUDA, experiments.Seed)
	adv := core.New().BuildFromSentences(g.Doc, g.Sentences)
	reg := service.NewRegistry()
	reg.Add("cuda", adv)
	svc := service.New(reg, service.Options{})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	var b strings.Builder
	for _, q := range []string{
		"how to avoid shared memory bank conflicts",
		"reduce global memory latency",
		"divergent branches in a warp",
	} {
		resp, err := http.Get(ts.URL + "/v1/cuda/query?q=" + strings.ReplaceAll(q, " ", "+"))
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 0, 4096)
		buf := make([]byte, 4096)
		for {
			n, rerr := resp.Body.Read(buf)
			body = append(body, buf[:n]...)
			if rerr != nil {
				break
			}
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("query %q: %d %s", q, resp.StatusCode, body)
		}
		scrubbed := traceIDRe.ReplaceAllString(string(body), `"trace_id":"-"`)
		fmt.Fprintf(&b, "GET /v1/cuda/query?q=%s\n%s", strings.ReplaceAll(q, " ", "+"), scrubbed)
	}
	compareGolden(t, "query_http.golden", b.String())
}
