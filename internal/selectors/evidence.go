package selectors

import (
	"fmt"

	"repro/internal/nlp"
	"repro/internal/srl"
	"repro/internal/textproc"
)

// Evidence explains why a selector accepted a sentence — the keyword,
// relation, or role that satisfied its rule. An advising tool that can say
// *why* a sentence is advice is easier to trust and to tune (mis-selected
// evidence points directly at the keyword or parse to fix).
type Evidence struct {
	Selector SelectorID
	Detail   string // human-readable, e.g. `flagging phrase "good choice"`
}

// ExplainAnnotated returns the evidence for every selector that accepts the
// annotated sentence, in selector order (not just the first, unlike
// ClassifyAnnotated). An empty slice means no selector fires. Each detail
// is formatted from the position the rule's match returned.
func (r *Recognizer) ExplainAnnotated(a *nlp.Annotation) []Evidence {
	tree := a.Tree
	var out []Evidence
	for k := Keyword; k <= Purpose; k++ {
		i := r.match(k, a)
		if i < 0 {
			continue
		}
		var detail string
		switch k {
		case Keyword:
			detail = fmt.Sprintf("flagging phrase %q", r.flagging[i].Text)
		case Comparative:
			rel := tree.Relations[i]
			detail = fmt.Sprintf("xcomp(%s, %s)", tree.Words[rel.Governor], tree.Words[rel.Dependent])
		case Imperative:
			detail = fmt.Sprintf("imperative root %q with no subject", tree.Words[i])
		case Subject:
			detail = fmt.Sprintf("subject %q (lemma %q)",
				tree.Words[i], textproc.Lemma(tree.Words[i], textproc.NounClass))
		case Purpose:
			p := a.Purposes()[i]
			detail = fmt.Sprintf("purpose %q with predicate %q",
				srl.SpanText(tree, p.Start, p.End), textproc.Lemma(tree.Words[p.Predicate], textproc.VerbClass))
		}
		out = append(out, Evidence{Selector: k, Detail: detail})
	}
	return out
}
