package core

import "fmt"

// RulesDiff counts how the extracted advice changed across two versions of
// a document — the maintenance story behind the paper's motivation that
// guides are "rapidly changing" and hard to keep up with.
type RulesDiff struct {
	Added   int // rules of the new version whose text the old one lacks
	Removed int // rules of the old version whose text the new one lacks
}

// DiffRules compares the Stage-I output of two advisors by sentence text.
func DiffRules(old, new *Advisor) RulesDiff {
	oldSet := make(map[string]bool, len(old.advising))
	for _, r := range old.Rules() {
		oldSet[r.Text] = true
	}
	var d RulesDiff
	seen := make(map[string]bool, len(new.advising))
	for _, r := range new.Rules() {
		if !oldSet[r.Text] {
			d.Added++
		}
		seen[r.Text] = true
	}
	for _, r := range old.Rules() {
		if !seen[r.Text] {
			d.Removed++
		}
	}
	return d
}

// Short renders the churn — the form a registry hot-swap log line wants
// ("reloaded cuda: 3 added, 1 removed").
func (d RulesDiff) Short() string {
	return fmt.Sprintf("%d added, %d removed", d.Added, d.Removed)
}
