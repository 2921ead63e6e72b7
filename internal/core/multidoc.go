package core

import (
	"fmt"

	"repro/internal/htmldoc"
)

// BuildFromDocuments synthesizes one advisor over several documents — the
// paper's framing is "providing Egeria with a programming guide or other
// related documents" (plural). Sections are prefixed with their document's
// title so rule provenance stays visible, and the TF-IDF statistics span the
// whole combined corpus.
func (f *Framework) BuildFromDocuments(docs ...*htmldoc.Document) *Advisor {
	merged := &htmldoc.Document{}
	var sents []htmldoc.Sentence
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		if merged.Title == "" {
			merged.Title = doc.Title
		} else {
			merged.Title += " + " + doc.Title
		}
		base := len(merged.Sections)
		for _, sec := range doc.Sections {
			prefixed := sec
			if len(docs) > 1 && doc.Title != "" {
				prefixed.Title = fmt.Sprintf("%s — %s", doc.Title, sec.Title)
			}
			merged.Sections = append(merged.Sections, prefixed)
		}
		for _, s := range doc.Sentences() {
			sents = append(sents, htmldoc.Sentence{Text: s.Text, Section: base + s.Section})
		}
	}
	return f.BuildFromSentences(merged, sents)
}

// RuleChange classifies one rule's fate between two advisor versions.
type RuleChange int

// Rule diff outcomes.
const (
	RuleKept RuleChange = iota
	RuleAdded
	RuleRemoved
)

// RuleDiffEntry is one advising sentence that appears in, disappeared from,
// or survived a document update.
type RuleDiffEntry struct {
	Change   RuleChange
	Sentence AdvisingSentence // from the new advisor for kept/added, old for removed
}

// RulesDiff summarizes how the extracted advice changed across two versions
// of a document — the maintenance story behind the paper's motivation that
// guides are "rapidly changing" and hard to keep up with.
type RulesDiff struct {
	Kept    []RuleDiffEntry
	Added   []RuleDiffEntry
	Removed []RuleDiffEntry
}

// DiffRules compares the Stage-I output of two advisors by sentence text.
func DiffRules(old, new *Advisor) RulesDiff {
	oldSet := make(map[string]AdvisingSentence, len(old.advising))
	for _, r := range old.Rules() {
		oldSet[r.Text] = r
	}
	var d RulesDiff
	seen := map[string]bool{}
	for _, r := range new.Rules() {
		if _, ok := oldSet[r.Text]; ok {
			d.Kept = append(d.Kept, RuleDiffEntry{Change: RuleKept, Sentence: r})
		} else {
			d.Added = append(d.Added, RuleDiffEntry{Change: RuleAdded, Sentence: r})
		}
		seen[r.Text] = true
	}
	for _, r := range old.Rules() {
		if !seen[r.Text] {
			d.Removed = append(d.Removed, RuleDiffEntry{Change: RuleRemoved, Sentence: r})
		}
	}
	return d
}

// Summary renders the diff counts.
func (d RulesDiff) Summary() string {
	return fmt.Sprintf("%d kept, %d added, %d removed",
		len(d.Kept), len(d.Added), len(d.Removed))
}

// Short renders only the churn — the form a registry hot-swap log line wants
// ("reloaded cuda: 3 added, 1 removed").
func (d RulesDiff) Short() string {
	return fmt.Sprintf("%d added, %d removed", len(d.Added), len(d.Removed))
}
