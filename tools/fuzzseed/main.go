// Command fuzzseed regenerates the checked-in seed corpora for the fuzz
// targets (FuzzTokenize, FuzzParse, FuzzQuery, FuzzLoadAdvisor,
// FuzzTopKParity, FuzzReport, FuzzNormalizeTerms, FuzzBatch, FuzzAsk) from
// the three built-in synthetic guides and the synthesized profiler reports.
// Run from the repository root:
//
//	go run ./tools/fuzzseed
//
// The seeds live in each package's testdata/fuzz/<Target>/ directory — the
// layout `go test -fuzz` reads natively — so the fuzzers start from
// realistic guide HTML, guide sentences, and guide-derived queries rather
// than from empty inputs. htmldoc cannot import corpus (corpus builds on
// htmldoc), which is why these are files instead of f.Add calls.
package main

import (
	"bytes"
	"fmt"
	"log"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/gpusim"
	"repro/internal/nvvp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fuzzseed: ")

	guides := map[string]corpus.Register{
		"cuda":   corpus.CUDA,
		"opencl": corpus.OpenCL,
		"xeon":   corpus.XeonPhi,
	}

	var html, sentences, queries []seed
	for name, reg := range guides {
		g := corpus.GenerateSized(reg, 60, 0.3, 11)
		html = append(html, seed{name + "_guide", g.RenderHTML()})
		for i, text := range g.Texts() {
			if i >= 12 {
				break
			}
			sentences = append(sentences, seed{fmt.Sprintf("%s_sent_%02d", name, i), text})
		}
	}
	for i, q := range corpus.CUDAQueries() {
		queries = append(queries, seed{fmt.Sprintf("cuda_query_%02d", i), q.Text})
	}

	write("internal/htmldoc/testdata/fuzz/FuzzTokenize", "string", html)
	write("internal/depparse/testdata/fuzz/FuzzParse", "string", sentences)
	write("internal/service/testdata/fuzz/FuzzQuery", "string", queries)

	// top-k parity seeds: realistic guide corpora × guide queries, across
	// the k and threshold axes (tiny k, k past the corpus size, the paper's
	// threshold, thresholds that admit zero-score documents)
	var parity []topkSeed
	for name, reg := range guides {
		g := corpus.GenerateSized(reg, 60, 0.3, 11)
		texts := g.Texts()
		if len(texts) > 48 {
			texts = texts[:48]
		}
		blob := joinLines(texts)
		for i, q := range corpus.CUDAQueries() {
			if i >= 4 {
				break
			}
			parity = append(parity,
				topkSeed{fmt.Sprintf("%s_q%02d_top10", name, i), blob, q.Text, 10, 0.15},
				topkSeed{fmt.Sprintf("%s_q%02d_top1", name, i), blob, q.Text, 1, 0.01},
				topkSeed{fmt.Sprintf("%s_q%02d_all", name, i), blob, q.Text, 2 * len(texts), 0},
			)
		}
	}
	writeTopK("internal/vsm/testdata/fuzz/FuzzTopKParity", parity)

	// snapshot-format seeds: a valid gob stream per guide plus the corrupt
	// shapes a crash or disk fault could produce — truncation, bit rot, and
	// a plausible-looking stream with a skewed leading version
	var snaps []seed
	for name, reg := range guides {
		g := corpus.GenerateSized(reg, 60, 0.3, 11)
		adv := core.New().BuildFromSentences(g.Doc, g.Sentences)
		var buf bytes.Buffer
		if err := adv.Save(&buf); err != nil {
			log.Fatal(err)
		}
		valid := buf.Bytes()
		snaps = append(snaps, seed{name + "_snapshot", string(valid)})
		if name == "cuda" {
			snaps = append(snaps, seed{"cuda_truncated", string(valid[:len(valid)/2])})
			flipped := bytes.Clone(valid)
			flipped[len(flipped)/3] ^= 0xff
			snaps = append(snaps, seed{"cuda_bitrot", string(flipped)})
			snaps = append(snaps, seed{"cuda_head_only", string(valid[:24])})
		}
	}
	snaps = append(snaps, seed{"empty", ""}, seed{"not_gob", "{\"advisor\":\"cuda\"}"})
	write("internal/core/testdata/fuzz/FuzzLoadAdvisor", "[]byte", snaps)

	write("internal/service/testdata/fuzz/FuzzReport", "[]byte", reportSeeds())
	write("internal/service/testdata/fuzz/FuzzBatch", "[]byte", batchSeeds())
	write("internal/service/testdata/fuzz/FuzzAsk", "string", askSeeds())
	write("internal/textproc/testdata/fuzz/FuzzNormalizeTerms", "string", normalizeSeeds(sentences, queries))
}

// normalizeSeeds are FuzzNormalizeTerms' texts: guide sentences, guide
// queries, the issue text of every synthesized NVVP report, and words that
// Unicode lowercasing shortens or makes ASCII, clitics in both cases,
// invalid UTF-8 and words around the stem memo's 32-byte limit.
func normalizeSeeds(sentences, queries []seed) []seed {
	out := append(append([]seed(nil), sentences...), queries...)
	for _, p := range nvvp.Programs() {
		text, err := nvvp.Synthesize(p)
		if err != nil {
			log.Fatal(err)
		}
		r, err := nvvp.Parse(text)
		if err != nil {
			log.Fatal(err)
		}
		for i, is := range r.Issues() {
			out = append(out, seed{fmt.Sprintf("issue_%s_%d", p, i), is.Query()})
		}
	}
	for i, h := range []string{
		"\u0130S \u0130t's \u212Aeeping \u017Ftrides CAF\u00c9\u00a0caf\u00e9",
		"Don't DON'T GPU's n't 'S it'LL we'RE",
		"caf\xff \xe2\x80 x86 3.14f e.g. i.e. non-coalesced read/write clWaitForEvents()",
		"optimizeoptimizeoptimizeoptimize optimizeoptimizeoptimizeoptimizes",
	} {
		out = append(out, seed{fmt.Sprintf("hostile_%d", i), h})
	}
	return out
}

// reportSeeds are FuzzReport's bodies: the synthesized NVVP text reports,
// the metrics snapshot of each modelled kernel, and reports whose program
// and issue titles carry bytes a JSON writer must escape.
func reportSeeds() []seed {
	var out []seed
	for _, p := range nvvp.Programs() {
		text, err := nvvp.Synthesize(p)
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, seed{"report_" + p, text})
	}
	for name, k := range gpusim.BenchmarkKernels() {
		body, err := nvvp.ProfileKernel(k, gpusim.GTX780()).Encode()
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, seed{"metrics_" + name, string(body)})
	}
	for i, h := range []string{`quote " backslash \\`, "C0 \x00\x1f\b\f\t DEL \x7f", "bad UTF-8 \xff\xe2\x80", "\u2028 \u2029 <script>&"} {
		out = append(out, seed{fmt.Sprintf("hostile_%d", i), fmt.Sprintf(
			"=== NVVP Analysis Report ===\nProgram: %s\n\n-- 2. %s --\nOptimization: %s\nreduce memory latency %s\n", h, h, h, h)})
	}
	return out
}

// batchSeeds are FuzzBatch's bodies: the paper's CUDA queries spread over
// both advisors and three backend spellings (the one model's "" and "vsm",
// and "bm25", which is refused), the same queries differing only in
// measured values, and batches whose items fail alone (empty query,
// unknown advisor or backend) or that fail whole (not JSON, empty).
func batchSeeds() []seed {
	var items []string
	for i, q := range corpus.CUDAQueries() {
		items = append(items, fmt.Sprintf(`{"advisor":%q,"query":%q,"backend":%q}`,
			[]string{"cuda", "opencl"}[i%2], q.Text, []string{"", "vsm", "bm25"}[i%3]))
	}
	measured := `{"advisor":"cuda","query":"reduce memory latency 23%"},{"advisor":"cuda","query":"reduce memory latency 71%"}`
	failing := `{"advisor":"cuda","query":"  "},{"advisor":"fortran","query":"memory"},{"advisor":"cuda","query":"memory","backend":"tfidf"}`
	return []seed{
		{"batch_queries", `{"queries":[` + strings.Join(items, ",") + `]}`},
		{"batch_measured", `{"queries":[` + measured + `]}`},
		{"batch_item_errors", `{"queries":[` + failing + `,` + items[0] + `]}`},
		{"batch_empty", `{"queries":[]}`},
		{"batch_not_json", `{"queries":[{"advisor":"cuda",`},
	}
}

// askSeeds are FuzzAsk's query strings: the paper's CUDA queries with no
// backend and with "bm25", which is refused, under several k, and
// malformed parameters (a bad escape, k not a positive integer, an unknown
// backend, no q).
func askSeeds() []seed {
	var out []seed
	for i, q := range corpus.CUDAQueries() {
		v := url.Values{"q": {q.Text}, "k": {strconv.Itoa(1 + i%4)}}
		if i%2 == 1 {
			v.Set("backend", "bm25")
		}
		out = append(out, seed{fmt.Sprintf("ask_%02d", i), v.Encode()})
	}
	for i, raw := range []string{"q=%zz&k=2", "q=memory&k=0", "q=memory&k=x", "q=memory&backend=tfidf", "k=3", "q=memory;latency&q=second"} {
		out = append(out, seed{fmt.Sprintf("ask_bad_%d", i), raw})
	}
	return out
}

type seed struct{ name, value string }

// write emits one file per seed in the `go test fuzz v1` corpus format, each
// value typed as the fuzz target's argument ("string" or "[]byte").
func write(dir, typ string, seeds []seed) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, s := range seeds {
		body := "go test fuzz v1\n" + typ + "(" + strconv.Quote(s.value) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, s.name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("%s: %d seeds", dir, len(seeds))
}

// topkSeed is one FuzzTopKParity input: a newline-joined sentence corpus,
// a query, and the k and threshold axes.
type topkSeed struct {
	name, blob, query string
	k                 int
	threshold         float64
}

// joinLines joins sentences into the newline-separated corpus blob the
// parity fuzzer splits back apart.
func joinLines(texts []string) string {
	out := ""
	for i, t := range texts {
		if i > 0 {
			out += "\n"
		}
		out += t
	}
	return out
}

// writeTopK emits FuzzTopKParity's four-argument corpus files.
func writeTopK(dir string, seeds []topkSeed) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, s := range seeds {
		body := "go test fuzz v1\n" +
			"string(" + strconv.Quote(s.blob) + ")\n" +
			"string(" + strconv.Quote(s.query) + ")\n" +
			"int(" + strconv.Itoa(s.k) + ")\n" +
			"float64(" + strconv.FormatFloat(s.threshold, 'g', -1, 64) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, s.name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("%s: %d seeds", dir, len(seeds))
}
