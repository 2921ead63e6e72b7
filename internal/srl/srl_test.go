package srl

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/depparse"
	"repro/internal/textproc"
)

func purposeTexts(sentence string) []string {
	tree := depparse.ParseText(sentence)
	var out []string
	for _, p := range PurposeClauses(tree) {
		out = append(out, SpanText(tree, p.Start, p.End))
	}
	return out
}

// TestFigure3SemanticRoles reproduces the paper's Figure 3: the category-VI
// example sentence has a purpose argument "to minimize data transfers with
// low bandwidth" whose predicate is "minimize".
func TestFigure3SemanticRoles(t *testing.T) {
	s := "The first step in maximizing overall memory throughput for the application is to minimize data transfers with low bandwidth."
	tree := depparse.ParseText(s)
	purposes := PurposeClauses(tree)
	if len(purposes) != 1 {
		t.Fatalf("got %d purposes (%v), want 1", len(purposes), purposes)
	}
	p := purposes[0]
	if tree.Words[p.Predicate] != "minimize" {
		t.Errorf("purpose predicate = %q, want minimize", tree.Words[p.Predicate])
	}
	got := SpanText(tree, p.Start, p.End)
	if !strings.HasPrefix(got, "to minimize data transfers") {
		t.Errorf("purpose span = %q", got)
	}

	// frames: 'minimize' must carry an A1 covering "data transfers ..."
	frames := Label(tree)
	var minFrame *Frame
	for i := range frames {
		if frames[i].Lemma == "minimize" {
			minFrame = &frames[i]
		}
	}
	if minFrame == nil {
		t.Fatalf("no frame for minimize; frames: %+v", frames)
	}
	a1 := minFrame.ArgsByRole(A1)
	if len(a1) == 0 {
		t.Fatalf("minimize has no A1")
	}
	if a1txt := SpanText(tree, a1[0].Start, a1[0].End); !strings.Contains(a1txt, "data transfers") {
		t.Errorf("A1 = %q, want it to cover 'data transfers'", a1txt)
	}

	// the 'be' frame carries the AM-PNC (as in the paper's SRL demo output)
	foundPNC := false
	for _, f := range frames {
		for _, a := range f.ArgsByRole(AMPNC) {
			if strings.Contains(SpanText(tree, a.Start, a.End), "minimize data transfers") {
				foundPNC = true
			}
		}
	}
	if !foundPNC {
		t.Errorf("no frame carries the AM-PNC purpose; frames: %+v", frames)
	}
}

func TestPurposeDetectionPatterns(t *testing.T) {
	cases := []struct {
		sentence string
		wantPred string
	}{
		{"Unroll the loop to reduce instruction overhead.", "reduce"},
		{"Stage data in shared memory in order to avoid redundant global loads.", "avoid"},
		{"The condition should be written so as to minimize the number of divergent warps.", "minimize"},
		{"Programmers must carefully control the bank bits to avoid bank conflicts as much as possible.", "avoid"},
		{"To obtain best performance, write the controlling condition carefully.", "obtain"},
	}
	for _, c := range cases {
		tree := depparse.ParseText(c.sentence)
		purposes := PurposeClauses(tree)
		if len(purposes) == 0 {
			t.Errorf("no purpose found in %q", c.sentence)
			continue
		}
		found := false
		for _, p := range purposes {
			if textproc.Lemma(tree.Words[p.Predicate], textproc.VerbClass) == c.wantPred {
				found = true
			}
		}
		if !found {
			t.Errorf("purpose predicate for %q: want %q, got %v", c.sentence, c.wantPred, purposeTexts(c.sentence))
		}
	}
}

func TestMultiplePurposesInOneSentence(t *testing.T) {
	s := "Tile the loops to maximize reuse and stage the halo once to minimize traffic."
	tree := depparse.ParseText(s)
	purposes := PurposeClauses(tree)
	if len(purposes) != 2 {
		t.Fatalf("got %d purposes: %v", len(purposes), purposeTexts(s))
	}
	preds := map[string]bool{}
	for _, p := range purposes {
		preds[textproc.Lemma(tree.Words[p.Predicate], textproc.VerbClass)] = true
	}
	if !preds["maximize"] || !preds["minimize"] {
		t.Errorf("predicates: %v", preds)
	}
}

func TestPurposeInPassiveMainClause(t *testing.T) {
	s := "The condition should be rewritten to minimize the number of divergent warps."
	tree := depparse.ParseText(s)
	purposes := PurposeClauses(tree)
	if len(purposes) != 1 {
		t.Fatalf("purposes: %v", purposeTexts(s))
	}
	if tree.Words[purposes[0].Predicate] != "minimize" {
		t.Errorf("predicate %q", tree.Words[purposes[0].Predicate])
	}
	// the purpose is governed by the passive main verb
	gov := governingPredicate(tree, purposes[0], purposes)
	if gov < 0 || tree.Lemma(gov) != "rewrite" {
		t.Errorf("governor %q", tree.Word(gov))
	}
}

func TestInOrderToMidSentence(t *testing.T) {
	s := "The halo is staged once per block in order to avoid redundant loads."
	got := purposeTexts(s)
	if len(got) != 1 || !strings.HasPrefix(got[0], "in order to avoid") {
		t.Errorf("purposes: %v", got)
	}
}

func TestPurposeSpanStopsAtComma(t *testing.T) {
	s := "To maximize coalescing, align the base address."
	tree := depparse.ParseText(s)
	purposes := PurposeClauses(tree)
	if len(purposes) != 1 {
		t.Fatalf("purposes: %v", purposeTexts(s))
	}
	span := SpanText(tree, purposes[0].Start, purposes[0].End)
	if strings.Contains(span, "align") {
		t.Errorf("purpose span leaked past the comma: %q", span)
	}
}

func TestControlVerbsExcluded(t *testing.T) {
	for _, s := range []string{
		"The branch tends to diverge under load.",
		"The scheduler wants to issue two instructions.",
	} {
		if got := purposeTexts(s); len(got) != 0 {
			t.Errorf("control complement mislabeled as purpose in %q: %v", s, got)
		}
	}
}

// TestHasPurposeWithPredicate: selector 5 accepts a sentence when one of
// its purpose clauses has a predicate whose verb lemma is in KEY
// PREDICATES, so each clause's Predicate must index that verb. The
// negatives have no purpose clause or one whose predicate is outside the set.
func TestHasPurposeWithPredicate(t *testing.T) {
	preds := map[string]bool{
		"maximize": true, "minimize": true, "recommend": true,
		"accomplish": true, "achieve": true, "avoid": true,
	}
	hasPurposeWithPredicate := func(s string) bool {
		tree := depparse.ParseText(s)
		for _, p := range PurposeClauses(tree) {
			if preds[textproc.Lemma(tree.Words[p.Predicate], textproc.VerbClass)] {
				return true
			}
		}
		return false
	}
	positive := []string{
		"The first step is to minimize data transfers with low bandwidth.",
		"Coalesce the accesses to maximize bandwidth utilization.",
		"Pad the array in order to avoid bank conflicts.",
		"Use streams to achieve overlap between transfers and execution.",
	}
	for _, s := range positive {
		if !hasPurposeWithPredicate(s) {
			t.Errorf("no purpose clause with a key predicate in %q: %v", s, purposeTexts(s))
		}
	}
	negative := []string{
		"Use the profiler to inspect the kernel.", // inspect not in set
		"The warp scheduler issues instructions in order.",
		"Bank conflicts increase latency.",
	}
	for _, s := range negative {
		if hasPurposeWithPredicate(s) {
			t.Errorf("purpose clause with a key predicate in %q: %v", s, purposeTexts(s))
		}
	}
}

func TestNoPurposeInPlainSentences(t *testing.T) {
	for _, s := range []string{
		"The warp size is thirty-two threads.",
		"Global memory resides in device memory.",
		"Shared memory is divided into banks.",
	} {
		if got := purposeTexts(s); len(got) != 0 {
			t.Errorf("spurious purpose in %q: %v", s, got)
		}
	}
}

func TestFramesCoreArguments(t *testing.T) {
	tree := depparse.ParseText("The compiler unrolls small loops.")
	frames := Label(tree)
	if len(frames) == 0 {
		t.Fatal("no frames")
	}
	var main *Frame
	for i := range frames {
		if frames[i].Lemma == "unroll" {
			main = &frames[i]
		}
	}
	if main == nil {
		t.Fatalf("no unroll frame: %+v", frames)
	}
	if a0 := main.ArgsByRole(A0); len(a0) == 0 || !strings.Contains(SpanText(tree, a0[0].Start, a0[0].End), "compiler") {
		t.Errorf("A0 wrong: %+v", a0)
	}
	if a1 := main.ArgsByRole(A1); len(a1) == 0 || !strings.Contains(SpanText(tree, a1[0].Start, a1[0].End), "loops") {
		t.Errorf("A1 wrong: %+v", a1)
	}
}

func TestPassiveA1(t *testing.T) {
	tree := depparse.ParseText("Register usage can be controlled with a compiler option.")
	frames := Label(tree)
	for _, f := range frames {
		if f.Lemma == "control" {
			a1 := f.ArgsByRole(A1)
			if len(a1) == 0 || !strings.Contains(SpanText(tree, a1[0].Start, a1[0].End), "usage") {
				t.Errorf("passive A1 wrong: %+v", a1)
			}
			if mod := f.ArgsByRole(AMMOD); len(mod) == 0 {
				t.Errorf("missing AM-MOD for 'can'")
			}
			return
		}
	}
	t.Fatalf("no control frame: %+v", frames)
}

func TestNegation(t *testing.T) {
	tree := depparse.ParseText("The host does not read the memory object.")
	frames := Label(tree)
	found := false
	for _, f := range frames {
		if len(f.ArgsByRole(AMNEG)) > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no AM-NEG found: %+v", frames)
	}
}

func TestSpanTextBounds(t *testing.T) {
	tree := depparse.ParseText("Avoid conflicts.")
	if got := SpanText(tree, -5, 99); got == "" {
		t.Errorf("clamped span should be non-empty, got %q", got)
	}
	if got := SpanText(tree, 2, 1); got != "" {
		t.Errorf("inverted span should be empty, got %q", got)
	}
}

// Property: argument spans are within bounds and ordered, and every frame's
// predicate is a verb token.
func TestLabelInvariants(t *testing.T) {
	vocab := []string{
		"use", "shared", "memory", "to", "avoid", "bank", "conflicts",
		"the", "kernel", "is", "slow", ",", ".", "maximize", "for",
		"in", "order", "minimizing", "transfers", "and",
	}
	f := func(seed []byte) bool {
		if len(seed) == 0 {
			return true
		}
		if len(seed) > 20 {
			seed = seed[:20]
		}
		words := make([]string, len(seed))
		for i, b := range seed {
			words[i] = vocab[int(b)%len(vocab)]
		}
		tree := depparse.ParseWords(words)
		for _, fr := range Label(tree) {
			if fr.Predicate < 0 || fr.Predicate >= len(words) {
				return false
			}
			if !tree.Tags[fr.Predicate].IsVerb() {
				return false
			}
			for _, a := range fr.Args {
				if a.Start < 0 || a.End >= len(words) || a.Start > a.End {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLabel(b *testing.B) {
	tree := depparse.ParseText("The first step in maximizing overall memory throughput for the application is to minimize data transfers with low bandwidth.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Label(tree)
	}
}
