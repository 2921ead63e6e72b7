// Web advisor (paper Figs. 6-7 / artifact appendix): serve the CUDA Adviser
// over HTTP with a rule list front page, a query box, and NVVP report
// upload, beside the /v1 JSON API of internal/service that answers them.
// Visit http://localhost:8080 after starting.
package main

import (
	"flag"
	"log"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/selectors"
	"repro/internal/service"
	"repro/internal/webui"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", ":8080", "listen address")
	register := flag.String("guide", "cuda", "guide register: cuda, opencl, xeon")
	flag.Parse()

	reg, err := corpus.ParseRegister(*register)
	if err != nil {
		log.Fatal(err)
	}
	cfg := selectors.DefaultConfig()
	title := reg.String() + " Adviser"
	if reg == corpus.XeonPhi {
		cfg = selectors.XeonTunedConfig()
		title = "Xeon Phi Adviser"
	}

	guide := corpus.Generate(reg, 1)
	advisor := core.New(core.WithConfig(cfg)).BuildFromSentences(guide.Doc, guide.Sentences)
	name := strings.ToLower(reg.String())
	registry := service.NewRegistry()
	registry.Add(name, advisor)
	svc := service.New(registry, service.Options{})
	webui.New(svc, name, title)
	log.Printf("%s: %d rules from %d sentences; listening on %s (JSON API under /v1/%s/)",
		title, len(advisor.Rules()), advisor.SentenceCount(), *addr, name)
	log.Fatal(http.ListenAndServe(*addr, svc))
}
