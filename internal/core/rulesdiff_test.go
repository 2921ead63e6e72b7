package core

import "testing"

func TestDiffRules(t *testing.T) {
	f := New()
	v1 := f.BuildFromHTML(`<p>Use shared memory for the tile. Avoid bank conflicts
by padding. The warp size is thirty-two threads.</p>`)
	v2 := f.BuildFromHTML(`<p>Use shared memory for the tile. Align the base
pointer to the transaction size. The warp size is thirty-two threads.</p>`)
	// "Align the base ..." is added, "Avoid bank conflicts ..." removed, and
	// the kept "Use shared memory ..." counts in neither
	d := DiffRules(v1, v2)
	if d != (RulesDiff{Added: 1, Removed: 1}) {
		t.Errorf("diff %+v, want 1 added and 1 removed", d)
	}
	if got := d.Short(); got != "1 added, 1 removed" {
		t.Errorf("short %q", got)
	}
}

func TestDiffRulesIdentical(t *testing.T) {
	f := New()
	v := f.BuildFromHTML(`<p>Avoid bank conflicts by padding.</p>`)
	if len(v.Rules()) != 1 {
		t.Fatalf("rules: %+v", v.Rules())
	}
	if d := DiffRules(v, v); d != (RulesDiff{}) {
		t.Errorf("self diff: %s", d.Short())
	}
}
