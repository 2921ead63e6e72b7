package htmldoc

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/doc"
)

const sampleGuide = `<!DOCTYPE html>
<html><head><title>CUDA C Programming Guide</title>
<style>body { color: red; }</style>
<script>var x = "<h1>not a heading</h1>";</script>
</head>
<body>
<h1>5. Performance Guidelines</h1>
<p>This chapter gives guidance.</p>
<h2>5.1. Overall Performance Optimization Strategies</h2>
<p>Performance optimization revolves around three basic strategies.
Maximize parallel execution to achieve maximum utilization.</p>
<h2>5.4. Maximize Instruction Throughput</h2>
<p>To maximize instruction throughput the application should minimize
the use of arithmetic instructions with low throughput.</p>
<h3>5.4.2. Control Flow Instructions</h3>
<p>Any flow control instruction (<code>if</code>, <code>switch</code>)
can significantly impact the effective instruction throughput.</p>
<pre>
__global__ void kernel() { /* code dropped */ }
</pre>
<ul><li>Use &lt;#pragma unroll&gt; to control unrolling.</li>
<li>Avoid divergent warps &amp; serialization.</li></ul>
</body></html>`

func TestParseTitleAndSections(t *testing.T) {
	doc := Parse(sampleGuide)
	if doc.Title != "CUDA C Programming Guide" {
		t.Errorf("title = %q", doc.Title)
	}
	if len(doc.Sections) != 4 {
		t.Fatalf("got %d sections: %+v", len(doc.Sections), doc.Sections)
	}
	s := doc.SectionByNumber("5.4.2")
	if s == nil {
		t.Fatal("section 5.4.2 missing")
	}
	if s.Title != "Control Flow Instructions" || s.Level != 3 {
		t.Errorf("section = %+v", s)
	}
	if s.Path() != "5.4.2. Control Flow Instructions" {
		t.Errorf("path = %q", s.Path())
	}
}

func TestParseDropsScriptStyleAndPre(t *testing.T) {
	doc := Parse(sampleGuide)
	for _, sec := range doc.Sections {
		for _, b := range sec.Blocks {
			if strings.Contains(b, "not a heading") || strings.Contains(b, "color: red") {
				t.Errorf("script/style leaked into block %q", b)
			}
			if strings.Contains(b, "__global__") {
				t.Errorf("pre content leaked: %q", b)
			}
		}
	}
}

func TestParseEntities(t *testing.T) {
	doc := Parse(sampleGuide)
	found := false
	for _, sec := range doc.Sections {
		for _, b := range sec.Blocks {
			if strings.Contains(b, "<#pragma unroll>") {
				found = true
			}
			if strings.Contains(b, "&amp;") {
				t.Errorf("undecoded entity in %q", b)
			}
		}
	}
	if !found {
		t.Error("entity-decoded list item missing")
	}
}

func TestParseInlineTagsKeepWordsSeparate(t *testing.T) {
	doc := Parse("<p>use the <em>shared</em>memory path</p>")
	if len(doc.Sections) == 0 || len(doc.Sections[0].Blocks) == 0 {
		t.Fatal("no blocks")
	}
	b := doc.Sections[0].Blocks[0]
	if strings.Contains(b, "sharedmemory") {
		t.Errorf("inline close tag fused words: %q", b)
	}
}

func TestSentencesBackPointers(t *testing.T) {
	doc := Parse(sampleGuide)
	sents := doc.Sentences()
	if len(sents) == 0 {
		t.Fatal("no sentences")
	}
	for _, s := range sents {
		if s.Section < 0 || s.Section >= len(doc.Sections) {
			t.Errorf("bad section pointer %d", s.Section)
		}
		if strings.TrimSpace(s.Text) == "" {
			t.Error("empty sentence")
		}
	}
	if doc.SentenceCount() != len(sents) {
		t.Error("SentenceCount mismatch")
	}
}

func TestParseUnnumberedHeadings(t *testing.T) {
	doc := Parse("<h1>Introduction</h1><p>Hello world.</p>")
	if len(doc.Sections) != 1 || doc.Sections[0].Number != "" || doc.Sections[0].Title != "Introduction" {
		t.Errorf("sections = %+v", doc.Sections)
	}
	if doc.Sections[0].Path() != "Introduction" {
		t.Errorf("path = %q", doc.Sections[0].Path())
	}
}

func TestParseTextBeforeFirstHeading(t *testing.T) {
	doc := Parse("<p>Preface text.</p><h1>1. Start</h1><p>Body.</p>")
	if len(doc.Sections) != 2 {
		t.Fatalf("sections = %+v", doc.Sections)
	}
	if doc.Sections[0].Title != "Preamble" {
		t.Errorf("first section = %+v", doc.Sections[0])
	}
}

func TestDecodeEntities(t *testing.T) {
	cases := map[string]string{
		"a &amp; b":        "a & b",
		"&lt;tag&gt;":      "<tag>",
		"&#65;&#66;":       "AB",
		"&#x41;":           "A",
		"no entities":      "no entities",
		"&unknown; stays":  "&unknown; stays",
		"&quot;q&quot;":    `"q"`,
		"5 &le; 6 &ge; 4":  "5 ≤ 6 ≥ 4",
		"bare & ampersand": "bare & ampersand",
	}
	for in, want := range cases {
		if got := DecodeEntities(in); got != want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseMalformedHTML(t *testing.T) {
	// unterminated tags and comments must not panic or loop
	for _, s := range []string{
		"<p>text", "<p", "text <", "<!-- unterminated", "<p>a<b>c",
		"</div></div>", "<h1>t", "", "<script>x", "plain text only",
	} {
		doc := Parse(s)
		_ = doc.Sentences()
	}
}

// Property: Parse never panics and every emitted block is non-empty
// whitespace-normalized text.
func TestParseRobustness(t *testing.T) {
	f := func(s string) bool {
		doc := Parse(s)
		for _, sec := range doc.Sections {
			for _, b := range sec.Blocks {
				if strings.TrimSpace(b) == "" {
					return false
				}
				if strings.Contains(b, "  ") {
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

func TestFromBlocks(t *testing.T) {
	doc := FromBlocks("Synthetic", []Section{
		{Number: "1", Title: "Intro", Level: 1, Blocks: []string{"One sentence. Two sentences."}},
	})
	if doc.SentenceCount() != 2 {
		t.Errorf("count = %d", doc.SentenceCount())
	}
}

func BenchmarkParseGuide(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parse(sampleGuide)
	}
}

// TestKeys: a sentence's key is its section's path and its text; a section
// index out of range (a snapshot's sentences are untrusted) or a nil
// document gives the path "", never a panic.
func TestKeys(t *testing.T) {
	d := FromBlocks("Guide", []Section{
		{Number: "5.4", Title: "Maximize Instruction Throughput"},
		{Title: "Preamble"},
	})
	sents := []Sentence{
		{Text: "Use intrinsics.", Section: 0},
		{Text: "Read this first.", Section: 1},
		{Text: "Out of range.", Section: 2},
		{Text: "Negative.", Section: -1},
	}
	want := []doc.Key{
		{Section: "5.4. Maximize Instruction Throughput", Text: "Use intrinsics."},
		{Section: "Preamble", Text: "Read this first."},
		{Section: "", Text: "Out of range."},
		{Section: "", Text: "Negative."},
	}
	if got := Keys(d, sents); !slices.Equal(got, want) {
		t.Fatalf("Keys = %q, want %q", got, want)
	}
	for i, k := range Keys(nil, sents) {
		if k != (doc.Key{Text: sents[i].Text}) {
			t.Fatalf("Keys(nil)[%d] = %q, want no section", i, k)
		}
	}
}
