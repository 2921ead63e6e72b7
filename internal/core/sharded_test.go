package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/htmldoc"
	"repro/internal/nlp"
	"repro/internal/textproc"
	"repro/internal/vsm"
)

// sameAnswers demands bit-identical retrieval: same sentences in the same
// order with Float64bits-equal scores. The sharded index is sold as a layout
// change, not a scoring change, so "close" is not good enough here.
func sameAnswers(t *testing.T, label string, got, want []Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vs %d answers", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Sentence.Index != want[i].Sentence.Index ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: answer %d: (%d, %x) vs (%d, %x)", label, i,
				got[i].Sentence.Index, got[i].Score, want[i].Sentence.Index, want[i].Score)
		}
	}
}

var shardedTestQueries = []string{
	"how to avoid shared memory bank conflicts",
	"reduce instruction and memory latency",
	"minimize divergent warps",
	"zyzzyva nothing matches",
}

// TestWithShardsBuildsShardedIndex: the framework option actually changes
// the index layout, and answers stay bit-identical to the monolithic build
// across both backends.
func TestWithShardsBuildsShardedIndex(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 200, 0.25, 31)
	mono := New().BuildFromSentences(g.Doc, g.Sentences)
	if mono.ShardCount() != 1 {
		t.Fatalf("monolithic ShardCount = %d, want 1", mono.ShardCount())
	}
	for _, n := range []int{2, 4, 8} {
		sh := New(WithShards(n)).BuildFromSentences(g.Doc, g.Sentences)
		if sh.ShardCount() != n {
			t.Fatalf("WithShards(%d) advisor ShardCount = %d", n, sh.ShardCount())
		}
		for _, q := range shardedTestQueries {
			sameAnswers(t, q, sh.Query(q), mono.Query(q))
			mb, err1 := mono.QueryBackend(q, "bm25")
			sb, err2 := sh.QueryBackend(q, "bm25")
			if err1 != nil || err2 != nil {
				t.Fatalf("bm25: %v / %v", err1, err2)
			}
			sameAnswers(t, "bm25 "+q, sb, mb)
		}
	}
	// WithShards(1) and WithShards(0) stay monolithic
	for _, n := range []int{0, 1} {
		a := New(WithShards(n)).BuildFromSentences(g.Doc, g.Sentences)
		if a.ShardCount() != 1 {
			t.Fatalf("WithShards(%d) ShardCount = %d, want 1", n, a.ShardCount())
		}
	}
}

// TestShardedSaveLoadRoundTrip: the v2 snapshot persists the shard layout —
// a loaded advisor has the same shard count and bit-identical answers.
func TestShardedSaveLoadRoundTrip(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 180, 0.3, 37)
	orig := New(WithShards(4)).BuildFromSentences(g.Doc, g.Sentences)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAdvisor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ShardCount() != 4 {
		t.Fatalf("loaded ShardCount = %d, want 4", loaded.ShardCount())
	}
	for _, q := range shardedTestQueries {
		sameAnswers(t, q, loaded.Query(q), orig.Query(q))
	}
	// identity survives, so a loaded snapshot is a valid incremental base
	oid, lid := orig.SentenceIDs(), loaded.SentenceIDs()
	for i := range oid {
		if oid[i] != lid[i] {
			t.Fatalf("sentence %d ID %q vs %q", i, lid[i], oid[i])
		}
	}
}

// TestV1SnapshotLoadsMonolithic pins forward compatibility: a version-1
// stream (no Shards field — gob leaves it zero) must load as a single-shard
// advisor, not be rejected by the version gate.
func TestV1SnapshotLoadsMonolithic(t *testing.T) {
	g := corpus.GenerateSized(corpus.CUDA, 120, 0.3, 41)
	fresh := New().BuildFromSentences(g.Doc, g.Sentences)
	snap := advisorSnapshot{
		Version:   1,
		Threshold: 0.15,
		Title:     g.Doc.Title,
		Sections:  g.Doc.Sections,
		Advising:  fresh.Rules(),
	}
	for _, s := range g.Sentences {
		snap.Sentences = append(snap.Sentences, htmldoc.Sentence{Text: s.Text, Section: s.Section})
		snap.Terms = append(snap.Terms, textproc.NormalizeTerms(s.Text))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAdvisor(&buf)
	if err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	if loaded.ShardCount() != 1 {
		t.Fatalf("v1 snapshot ShardCount = %d, want 1", loaded.ShardCount())
	}
	for _, q := range shardedTestQueries {
		sameAnswers(t, q, loaded.Query(q), fresh.Query(q))
	}
}

// TestShardedUpdatePreservesLayout: an incremental update of a sharded
// advisor keeps the shard layout and answers bit-identically to a cold
// sharded build of the new corpus — the update path's Rebuild goes through
// the same global-stats pipeline as the cold build.
func TestShardedUpdatePreservesLayout(t *testing.T) {
	const nShards = 4
	fw := New(WithShards(nShards))
	g := corpus.GenerateSized(corpus.CUDA, 150, 0.3, 43)
	adv := fw.BuildFromSentences(g.Doc, g.Sentences)

	// three chained edits: drop a prefix, drop a suffix, append fresh
	// sentences from a differently-seeded guide
	g2 := corpus.GenerateSized(corpus.CUDA, 150, 0.3, 44)
	edits := [][]htmldoc.Sentence{
		g.Sentences[10:],
		g.Sentences[10:140],
		append(append([]htmldoc.Sentence{}, g.Sentences[10:140]...), g2.Sentences[:20]...),
	}
	for step, sents := range edits {
		next, err := fw.UpdateFromSentences(adv, g.Doc, sents)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if next.ShardCount() != nShards {
			t.Fatalf("step %d: update dropped shards: ShardCount = %d", step, next.ShardCount())
		}
		cold := fw.BuildFromSentences(g.Doc, sents)
		for _, q := range shardedTestQueries {
			sameAnswers(t, q, next.Query(q), cold.Query(q))
		}
		adv = next
	}
}

// TestRetrieveOutcome pins the one query path's explicit options: a fault
// draw failing one partition drops exactly that partition's sentences and
// counts it, failing every partition leaves no answers, an unknown backend
// is vsm.ErrUnknownBackend, and the convenience methods agree with it.
func TestRetrieveOutcome(t *testing.T) {
	const nShards = 4
	g := corpus.GenerateSized(corpus.CUDA, 200, 0.25, 31)
	adv := New(WithShards(nShards)).BuildFromSentences(g.Doc, g.Sentences)
	terms := nlp.QueryTerms("reduce instruction and memory latency")
	full, out, err := adv.Retrieve(context.Background(), terms, adv.QueryOpts(""))
	if err != nil || out.Partitions != nShards || out.Failed != 0 || len(full) == 0 {
		t.Fatalf("healthy: %d answers, outcome %+v, err %v", len(full), out, err)
	}
	sameAnswers(t, "QueryTermsCtx", adv.QueryTermsCtx(context.Background(), terms), full)

	boom := errors.New("boom")
	first := true
	o := adv.QueryOpts("")
	o.Serial = true // the first draw is partition 0's
	o.Fault = func() error {
		if first {
			first = false
			return boom
		}
		return nil
	}
	partial, out, err := adv.Retrieve(context.Background(), terms, o)
	if err != nil || out.Failed != 1 || !errors.Is(out.Err, boom) {
		t.Fatalf("one partition failing: outcome %+v, err %v", out, err)
	}
	// sentences are placed by FNV-1a over their identity
	var kept []Answer
	for _, a := range full {
		h := fnv.New32a()
		h.Write([]byte(adv.ids[a.Sentence.Index]))
		if h.Sum32()%nShards != 0 {
			kept = append(kept, a)
		}
	}
	sameAnswers(t, "partial", partial, kept)

	o.Fault = func() error { return boom }
	if none, out, _ := adv.Retrieve(context.Background(), terms, o); len(none) != 0 || out.Failed != nShards {
		t.Fatalf("every partition failing: %d answers, outcome %+v", len(none), out)
	}
	if _, _, err := adv.Retrieve(context.Background(), terms, adv.QueryOpts("tfidf2")); !errors.Is(err, vsm.ErrUnknownBackend) {
		t.Fatalf("unknown backend: %v", err)
	}
	if got := fmt.Sprint(adv.Backends()); got != "[vsm bm25]" {
		t.Fatalf("Backends = %s", got)
	}
}
