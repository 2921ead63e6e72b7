// Command fuzzseed regenerates the checked-in seed corpora for the fuzz
// targets (FuzzTokenize, FuzzParse, FuzzQuery, FuzzLoadAdvisor) from the
// three built-in synthetic guides. Run from the repository root:
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
	"encoding/gob"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/htmldoc"
	"repro/internal/textproc"
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

	write("internal/htmldoc/testdata/fuzz/FuzzTokenize", html)
	write("internal/depparse/testdata/fuzz/FuzzParse", sentences)
	write("internal/service/testdata/fuzz/FuzzQuery", queries)

	// top-k parity seeds: realistic guide corpora × guide queries, across
	// the k / threshold / partition-count axes (tiny k, k past the corpus
	// size, the paper's threshold, thresholds that admit zero-score
	// documents, one and many partitions)
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
				topkSeed{fmt.Sprintf("%s_q%02d_top10", name, i), blob, q.Text, 10, 0.15, 4},
				topkSeed{fmt.Sprintf("%s_q%02d_top1", name, i), blob, q.Text, 1, 0.01, 1},
				topkSeed{fmt.Sprintf("%s_q%02d_all", name, i), blob, q.Text, 2 * len(texts), 0, 8},
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
	// pre-identity snapshots: streams an older build wrote, with no ID field
	// on sentences — one with per-sentence Terms (loads as a full-fidelity
	// warm start) and one without (the text-renormalizing fallback). Both
	// must keep loading forever.
	legacyTerms, legacyBare := legacySnapshots(corpus.GenerateSized(corpus.CUDA, 60, 0.3, 11))
	snaps = append(snaps,
		seed{"cuda_legacy_terms_only", string(legacyTerms)},
		seed{"cuda_legacy_no_terms", string(legacyBare)},
	)
	snaps = append(snaps, seed{"empty", ""}, seed{"not_gob", "{\"advisor\":\"cuda\"}"})
	writeBytes("internal/core/testdata/fuzz/FuzzLoadAdvisor", snaps)
}

// legacySentence mirrors the pre-identity htmldoc.Sentence wire shape: no ID
// field. gob matches struct fields by name, so encoding these locally-defined
// structs reproduces byte-compatible old-format streams.
type legacySentence struct {
	Text    string
	Section int
}

// legacySnapshot mirrors the pre-identity advisorSnapshot wire shape.
type legacySnapshot struct {
	Version   int
	Threshold float64
	Title     string
	Sections  []htmldoc.Section
	Sentences []legacySentence
	Advising  []core.AdvisingSentence
	Terms     [][]string
}

// legacySnapshots encodes a guide the way pre-identity builds persisted it:
// once with the per-sentence Terms lists, once without.
func legacySnapshots(g *corpus.Guide) (withTerms, withoutTerms []byte) {
	adv := core.New().BuildFromSentences(g.Doc, g.Sentences)
	snap := legacySnapshot{
		Version:   1,
		Threshold: 0.15,
		Title:     g.Doc.Title,
		Sections:  g.Doc.Sections,
		Advising:  adv.Rules(),
	}
	for _, s := range g.Sentences {
		snap.Sentences = append(snap.Sentences, legacySentence{Text: s.Text, Section: s.Section})
		snap.Terms = append(snap.Terms, textproc.NormalizeTerms(s.Text))
	}
	var a, b bytes.Buffer
	if err := gob.NewEncoder(&a).Encode(snap); err != nil {
		log.Fatal(err)
	}
	snap.Terms = nil
	if err := gob.NewEncoder(&b).Encode(snap); err != nil {
		log.Fatal(err)
	}
	return a.Bytes(), b.Bytes()
}

type seed struct{ name, value string }

// write emits one file per seed in the `go test fuzz v1` corpus format.
func write(dir string, seeds []seed) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, s := range seeds {
		body := "go test fuzz v1\nstring(" + strconv.Quote(s.value) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, s.name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("%s: %d seeds", dir, len(seeds))
}

// topkSeed is one FuzzTopKParity input: a newline-joined sentence corpus,
// a query, and the k / threshold / shard-count axes.
type topkSeed struct {
	name, blob, query string
	k                 int
	threshold         float64
	shards            int
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

// writeTopK emits FuzzTopKParity's five-argument corpus files.
func writeTopK(dir string, seeds []topkSeed) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, s := range seeds {
		body := "go test fuzz v1\n" +
			"string(" + strconv.Quote(s.blob) + ")\n" +
			"string(" + strconv.Quote(s.query) + ")\n" +
			"int(" + strconv.Itoa(s.k) + ")\n" +
			"float64(" + strconv.FormatFloat(s.threshold, 'g', -1, 64) + ")\n" +
			"int(" + strconv.Itoa(s.shards) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, s.name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("%s: %d seeds", dir, len(seeds))
}

// writeBytes is write for []byte-typed fuzz targets (binary inputs).
func writeBytes(dir string, seeds []seed) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, s := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(s.value) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, s.name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("%s: %d seeds", dir, len(seeds))
}
