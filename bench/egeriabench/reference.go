package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The reference server is the yardstick every end-to-end timing is read
// against. The host the benchmark was written on is a shared VM whose
// speed at serving HTTP over loopback drifts by up to 2× within minutes,
// while SHA-256 hashing there varies by 5–10%, so raw request timings of
// the same code spread by 13–36% over ten runs (quartile distance over
// median). The reference is a small HTTP server built from this file
// alone. It runs on the same CPU as egeria, in slices that alternate with
// egeria's, and each egeria slice's timings are scaled by how fast the
// reference ran on either side of it. Its code, corpus and queries are
// part of the benchmark's definition: changing anything here changes
// every end-to-end number.

// refNominalRPS is the reference throughput the end-to-end timings are
// scaled to: a timing reads as it would on a host where the reference
// serves this many requests per second.
const refNominalRPS = 6000

// Boot times are read against a second yardstick, refBuild, run in the
// benchmark's own process before and after every boot. A boot builds
// Stage I's annotations and the index: allocation, map and string work,
// whose speed on the host drifted with the boots' (log correlation 0.91
// over 25 boots) while SHA-256 hashing did not (0.31). refBuildNominalMs
// is the refBuild time setup_s is scaled to.
const refBuildNominalMs = 90

const (
	refSentences = 400
	refAnswers   = 8
	refSeed      = 7
)

var refVocabulary = strings.Fields(`memory coalescing shared bank conflict warp
divergence occupancy register kernel thread block grid latency bandwidth
global texture constant cache transfer overlap stream launch instruction
throughput branch loop unroll vector load store atomic barrier`)

// refServer answers GET /ref?q=… with the refAnswers sentences of a fixed
// synthetic corpus that share the most words with the query, as JSON: a
// query's parsing, scoring, sorting and encoding, at about the cost of one
// of egeria's cached answers.
type refServer struct {
	texts []string
	tf    []map[string]int
}

type refAnswer struct {
	Text  string  `json:"text"`
	Score float64 `json:"score"`
	Rank  int     `json:"rank"`
}

type refResponse struct {
	Query   string      `json:"query"`
	Terms   []string    `json:"terms"`
	Answers []refAnswer `json:"answers"`
}

func newRefServer() *refServer {
	rng := rand.New(rand.NewSource(refSeed))
	rs := &refServer{}
	for i := 0; i < refSentences; i++ {
		words := make([]string, 10+rng.Intn(15))
		tf := map[string]int{}
		for k := range words {
			words[k] = refVocabulary[rng.Intn(len(refVocabulary))]
			tf[words[k]]++
		}
		rs.texts = append(rs.texts, strings.Join(words, " "))
		rs.tf = append(rs.tf, tf)
	}
	return rs
}

func (rs *refServer) answer(q string) refResponse {
	terms := strings.Fields(strings.ToLower(q))
	type scored struct {
		i     int
		score float64
	}
	all := make([]scored, len(rs.tf))
	for i, tf := range rs.tf {
		s := float64(i%7) * 1e-3
		for _, t := range terms {
			s += float64(tf[t]) / math.Sqrt(float64(len(tf)))
		}
		all[i] = scored{i, s}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].score != all[b].score {
			return all[a].score > all[b].score
		}
		return all[a].i < all[b].i
	})
	resp := refResponse{Query: q, Terms: terms}
	for k := 0; k < refAnswers; k++ {
		resp.Answers = append(resp.Answers, refAnswer{Text: rs.texts[all[k].i], Score: all[k].score, Rank: k})
	}
	return resp
}

func (rs *refServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/ref" {
		http.NotFound(w, r)
		return
	}
	body, err := json.Marshal(rs.answer(r.URL.Query().Get("q")))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// serveReference runs the reference server until the process is stopped.
func serveReference(addr string) error {
	return http.ListenAndServe(addr, newRefServer())
}

// refQuery is the i-th query of the reference load: four vocabulary words
// and a number, the same sequence in every run.
func refQuery(i int) string {
	n := len(refVocabulary)
	return strings.Join([]string{
		refVocabulary[i%n], refVocabulary[(i*7+3)%n], refVocabulary[(i*13+5)%n], refVocabulary[(i*17+11)%n],
	}, " ") + " " + string(rune('0'+i%10))
}

// refBuildDocs is refBuild's fixed corpus: 3,000 sentences of 8 to 27
// words drawn from 3,000 word forms by a xorshift generator.
var refBuildDocs = func() [][]string {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	docs := make([][]string, 3000)
	for i := range docs {
		n := 8 + int(next()%20)
		for k := 0; k < n; k++ {
			docs[i] = append(docs[i], "w"+strconv.FormatUint(next()%3000, 36))
		}
	}
	return docs
}()

// refBuild builds a TF-IDF index over refBuildDocs three times, as a
// boot builds its index, and returns how long that took in ms.
func refBuild() float64 {
	start := time.Now()
	for rep := 0; rep < 3; rep++ {
		postings := map[string][]int{}
		var docs []map[string]float64
		for i, words := range refBuildDocs {
			text := strings.ToUpper(strings.Join(words, " "))
			tf := map[string]float64{}
			for _, w := range strings.Fields(strings.ToLower(text)) {
				tf[w]++
			}
			for w := range tf {
				postings[w] = append(postings[w], i)
			}
			docs = append(docs, tf)
		}
		terms := make([]string, 0, len(postings))
		for t := range postings {
			terms = append(terms, t)
		}
		sort.Strings(terms)
		n := float64(len(docs))
		for _, tf := range docs {
			for w, c := range tf {
				tf[w] = c * math.Log(n/float64(len(postings[w])))
			}
		}
	}
	return float64(time.Since(start)) / 1e6
}
