package depparse

import (
	"testing"
	"testing/quick"

	"repro/internal/postag"
	"repro/internal/textproc"
)

// findRel returns the first relation of type rt whose governor word equals
// gov (or any governor when gov == "*"), and whether one exists.
func findRel(t *Tree, rt RelType, gov string) (Relation, bool) {
	for _, r := range t.Relations {
		if r.Type != rt {
			continue
		}
		if gov == "*" || t.Word(r.Governor) == gov {
			return r, true
		}
	}
	return Relation{}, false
}

func mustRel(t *testing.T, tree *Tree, rt RelType, gov, dep string) {
	t.Helper()
	for _, r := range tree.Relations {
		if r.Type == rt && tree.Word(r.Governor) == gov && tree.Word(r.Dependent) == dep {
			return
		}
	}
	t.Errorf("missing %s(%s, %s); relations:\n%s", rt, gov, dep, tree)
}

// TestFigure2aDependencyStructure reproduces the relations the paper's
// Figure 2a highlights for the category-II example sentence.
func TestFigure2aDependencyStructure(t *testing.T) {
	tree := ParseText("Thus, a developer may prefer using buffers instead of images if no sampling operation is needed.")
	mustRel(t, tree, Root, "ROOT", "prefer")
	mustRel(t, tree, Nsubj, "prefer", "developer")
	mustRel(t, tree, Det, "developer", "a")
	mustRel(t, tree, Xcomp, "prefer", "using")
	mustRel(t, tree, Aux, "prefer", "may")
	mustRel(t, tree, Dobj, "using", "buffers")
	mustRel(t, tree, Nsubjpass, "needed", "operation")
}

// TestFigure2bDependencyStructure reproduces the relations for the
// category-III (passive) example sentence.
func TestFigure2bDependencyStructure(t *testing.T) {
	tree := ParseText("This synchronization guarantee can often be leveraged to avoid explicit clWaitForEvents() calls between command submissions.")
	mustRel(t, tree, Root, "ROOT", "leveraged")
	mustRel(t, tree, Nsubjpass, "leveraged", "guarantee")
	mustRel(t, tree, Aux, "leveraged", "can")
	mustRel(t, tree, Auxpass, "leveraged", "be")
	mustRel(t, tree, Advmod, "leveraged", "often")
	mustRel(t, tree, Xcomp, "leveraged", "avoid")
	mustRel(t, tree, Mark, "avoid", "to")
	mustRel(t, tree, Dobj, "avoid", "calls")
	mustRel(t, tree, Det, "guarantee", "This")
	mustRel(t, tree, Nn, "guarantee", "synchronization")
}

func TestXcompRecommendedQueue(t *testing.T) {
	tree := ParseText("It is recommended to queue kernels in order.")
	mustRel(t, tree, Xcomp, "recommended", "queue")
	mustRel(t, tree, Nsubjpass, "recommended", "It")
}

func TestXcompAdjectiveGovernor(t *testing.T) {
	// Rule 2 governors include adjectives: "better", "faster", "best".
	tree := ParseText("It is often better to use registers for this purpose.")
	mustRel(t, tree, Acomp, "is", "better")
	mustRel(t, tree, Xcomp, "better", "use")

	tree2 := ParseText("It is faster to pack small transfers into one larger transfer.")
	mustRel(t, tree2, Xcomp, "faster", "pack")
}

func TestImperativeNoSubject(t *testing.T) {
	tree := ParseText("Use shared memory to reduce global memory traffic.")
	root := tree.RootIndex()
	if root < 0 || tree.Words[root] != "Use" {
		t.Fatalf("root = %q, want Use\n%s", tree.Word(root), tree)
	}
	if tree.HasSubject(root) {
		t.Errorf("imperative root should have no subject\n%s", tree)
	}
	mustRel(t, tree, Xcomp, "Use", "reduce")
}

func TestImperativeConjChain(t *testing.T) {
	// The paper's category-IV example: the advising verb "avoid" is
	// coordinated with the clause head "takes".
	tree := ParseText("Pinning takes time, so avoid incurring pinning costs where CPU overhead must be avoided.")
	root := tree.RootIndex()
	if root < 0 || tree.Words[root] != "takes" {
		t.Fatalf("root = %q, want takes\n%s", tree.Word(root), tree)
	}
	var chain []int
	for i := range tree.Words {
		if tree.ConjOfRoot(i) {
			chain = append(chain, i)
		}
	}
	foundAvoid := false
	for _, i := range chain {
		if tree.Words[i] == "avoid" {
			foundAvoid = true
			if tree.HasSubject(i) {
				t.Errorf("conjoined imperative 'avoid' should have no subject\n%s", tree)
			}
		}
	}
	if !foundAvoid {
		t.Errorf("conj chain %v does not include 'avoid'\n%s", chain, tree)
	}
	if !tree.ConjOfRoot(root) {
		t.Error("the root is not ConjOfRoot")
	}
}

func TestDeclarativeHasSubject(t *testing.T) {
	tree := ParseText("The kernel uses thirty registers for each thread.")
	root := tree.RootIndex()
	if root < 0 || tree.Words[root] != "uses" {
		t.Fatalf("root = %q, want uses\n%s", tree.Word(root), tree)
	}
	if !tree.HasSubject(root) {
		t.Errorf("declarative root should have a subject\n%s", tree)
	}
}

func TestKeySubjectSentence(t *testing.T) {
	// Category V: sentences whose subject is in KEY SUBJECTS.
	tree := ParseText("For peak performance on all devices, developers can choose to use conditional compilation for key code loops in the kernel, or in some cases even provide two separate kernels.")
	r, ok := findRel(tree, Nsubj, "choose")
	if !ok {
		t.Fatalf("no nsubj(choose, *)\n%s", tree)
	}
	if tree.Word(r.Dependent) != "developers" {
		t.Errorf("nsubj(choose, %s), want developers", tree.Word(r.Dependent))
	}
	if tree.Lemma(r.Dependent) != "developer" {
		t.Errorf("lemma = %q, want developer", tree.Lemma(r.Dependent))
	}
	mustRel(t, tree, Xcomp, "choose", "use")
}

func TestSubjectAcrossPPChain(t *testing.T) {
	tree := ParseText("The number of threads per block should be chosen as a multiple of the warp size.")
	r, ok := findRel(tree, Nsubjpass, "chosen")
	if !ok {
		t.Fatalf("no nsubjpass(chosen, *)\n%s", tree)
	}
	if tree.Word(r.Dependent) != "number" {
		t.Errorf("nsubjpass(chosen, %s), want number", tree.Word(r.Dependent))
	}
}

func TestGerundAfterPreposition(t *testing.T) {
	tree := ParseText("The first step in maximizing overall memory throughput for the application is to minimize data transfers with low bandwidth.")
	root := tree.RootIndex()
	if root < 0 || tree.Words[root] != "is" {
		t.Fatalf("root = %q, want is\n%s", tree.Word(root), tree)
	}
	mustRel(t, tree, Pcomp, "in", "maximizing")
	mustRel(t, tree, Dobj, "maximizing", "throughput")
	r, ok := findRel(tree, Nsubj, "is")
	if !ok || tree.Word(r.Dependent) != "step" {
		t.Fatalf("want nsubj(is, step)\n%s", tree)
	}
	mustRel(t, tree, Xcomp, "is", "minimize")
	mustRel(t, tree, Dobj, "minimize", "transfers")
}

func TestAdvclSubordinateClause(t *testing.T) {
	tree := ParseText("If the kernel is memory bound, use shared memory for the hot data.")
	root := tree.RootIndex()
	if root < 0 || tree.Words[root] != "use" {
		t.Fatalf("root = %q, want use\n%s", tree.Word(root), tree)
	}
	if tree.HasSubject(root) {
		t.Errorf("imperative 'use' has a subject\n%s", tree)
	}
	if _, ok := findRel(tree, Advcl, "use"); !ok {
		t.Errorf("missing advcl(use, *)\n%s", tree)
	}
}

func TestPrepositionalAttachment(t *testing.T) {
	tree := ParseText("Minimize data transfers with low bandwidth.")
	mustRel(t, tree, Prep, "transfers", "with")
	mustRel(t, tree, Pobj, "with", "bandwidth")
}

func TestLemmaMethod(t *testing.T) {
	tree := ParseText("Developers prefer using buffers.")
	for i, w := range tree.Words {
		switch w {
		case "Developers":
			if tree.Lemma(i) != "developer" {
				t.Errorf("lemma(Developers) = %q", tree.Lemma(i))
			}
		case "using":
			if tree.Lemma(i) != "use" {
				t.Errorf("lemma(using) = %q", tree.Lemma(i))
			}
		case "buffers":
			if tree.Lemma(i) != "buffer" {
				t.Errorf("lemma(buffers) = %q", tree.Lemma(i))
			}
		}
	}
	if tree.Lemma(-1) != "" || tree.Lemma(99) != "" {
		t.Error("out-of-range lemma should be empty")
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if tr := ParseText(""); len(tr.Relations) != 0 {
		t.Errorf("empty sentence produced relations: %v", tr.Relations)
	}
	tr := ParseText(".")
	if tr.RootIndex() != -1 {
		// a lone punctuation token may be left unrooted
		t.Logf("punct-only root: %d", tr.RootIndex())
	}
	tr2 := ParseText("Performance.")
	if tr2.RootIndex() < 0 {
		t.Errorf("single-noun sentence should still have a root\n%s", tr2)
	}
}

// Structural invariants checked over arbitrary English-like inputs:
// at most one root, every non-punct token has exactly one head, no cycles,
// all indices in range.
func TestParseStructuralInvariants(t *testing.T) {
	vocab := []string{
		"the", "a", "kernel", "memory", "use", "avoid", "shared", "can",
		"be", "optimized", "to", "reduce", "and", "or", "if", "is",
		"threads", "should", "developers", "prefer", "using", "fast", ",",
		".", "performance", "with", "for", "of", "often", "not",
	}
	f := func(seed []byte) bool {
		if len(seed) == 0 {
			return true
		}
		if len(seed) > 24 {
			seed = seed[:24]
		}
		words := make([]string, len(seed))
		for i, b := range seed {
			words[i] = vocab[int(b)%len(vocab)]
		}
		tree := ParseWords(words)
		return checkTreeInvariants(tree)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func checkTreeInvariants(tree *Tree) bool {
	n := len(tree.Words)
	roots := 0
	for _, r := range tree.Relations {
		if r.Dependent < 0 || r.Dependent >= n {
			return false
		}
		if r.Governor < -1 || r.Governor >= n {
			return false
		}
		if r.Type == Root {
			roots++
		}
	}
	if roots > 1 {
		return false
	}
	// each token attached at most once
	seen := make(map[int]int, n)
	for _, r := range tree.Relations {
		seen[r.Dependent]++
		if seen[r.Dependent] > 1 {
			return false
		}
	}
	// non-punct tokens all attached when a root exists
	if roots == 1 {
		for i := 0; i < n; i++ {
			if tree.Tags[i] == postag.PUNCT {
				continue
			}
			if tree.HeadOf(i) == -2 {
				return false
			}
		}
	}
	// acyclic: walking heads terminates at root or unattached
	for i := 0; i < n; i++ {
		steps := 0
		for j := i; j >= 0; j = tree.HeadOf(j) {
			steps++
			if steps > n+1 {
				return false
			}
		}
	}
	return true
}

func TestParsePaperSentencesInvariants(t *testing.T) {
	sentences := []string{
		"This can be a good choice when the host does not read the memory object to avoid the host having to make a copy of the data to transfer.",
		"Thus, a developer may prefer using buffers instead of images if no sampling operation is needed.",
		"This synchronization guarantee can often be leveraged to avoid explicit clWaitForEvents() calls between command submissions.",
		"Pinning takes time, so avoid incurring pinning costs where CPU overhead must be avoided.",
		"For peak performance on all devices, developers can choose to use conditional compilation for key code loops in the kernel, or in some cases even provide two separate kernels.",
		"The first step in maximizing overall memory throughput for the application is to minimize data transfers with low bandwidth.",
		"Register usage can be controlled using the maxrregcount compiler option or launch bounds as described in Launch Bounds.",
		"The number of threads per block should be chosen as a multiple of the warp size to avoid wasting computing resources with under-populated warps as much as possible.",
		"To obtain best performance in cases where the control flow depends on the thread ID, the controlling condition should be written so as to minimize the number of divergent warps.",
	}
	for _, s := range sentences {
		tree := ParseText(s)
		if !checkTreeInvariants(tree) {
			t.Errorf("invariants violated for %q\n%s", s, tree)
		}
		if tree.RootIndex() < 0 {
			t.Errorf("no root for %q", s)
		}
	}
}

func TestTreeString(t *testing.T) {
	tree := ParseText("Avoid bank conflicts.")
	s := tree.String()
	if s == "" {
		t.Error("empty String()")
	}
}

func BenchmarkParseSentence(b *testing.B) {
	words := textproc.Words("The number of threads per block should be chosen as a multiple of the warp size to avoid wasting computing resources with under-populated warps as much as possible.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ParseWords(words)
	}
}
