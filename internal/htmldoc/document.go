package htmldoc

import (
	"regexp"
	"strings"

	"repro/internal/doc"
	"repro/internal/textproc"
)

// Section is one structural unit of a guide (chapter, section, subsection),
// identified by its heading.
type Section struct {
	Number string // "5.4.2" when the heading is numbered, else ""
	Title  string // heading text without the number
	Level  int    // 1 for h1/chapter ... 6
	Blocks []string
}

// Path renders the section identity the way the paper's figures do:
// "5.4.2. Control Flow Instructions".
func (s *Section) Path() string {
	if s.Number != "" {
		return s.Number + ". " + s.Title
	}
	return s.Title
}

// Document is a loaded guide: a title plus ordered sections.
type Document struct {
	Title    string
	Sections []Section
}

// Sentence is one sentence of the document with its structural location.
// What identifies it across document versions — its section path, its text
// and its ordinal among identical copies — is derived from this content by
// Keys and doc.Diff; nothing is stamped on the sentence itself.
type Sentence struct {
	Text    string
	Section int // index into Document.Sections
}

// sectionNumberRe matches leading section numbers like "5.", "5.4.2", "5.4.2.".
var sectionNumberRe = regexp.MustCompile(`^(\d+(?:\.\d+)*)\.?\s+`)

// blockTags end a text block when opened or closed.
var blockTags = map[string]bool{
	"p": true, "div": true, "li": true, "ul": true, "ol": true, "table": true,
	"tr": true, "td": true, "th": true, "br": true, "blockquote": true,
	"pre": true, "section": true, "article": true, "body": true, "html": true,
	"dd": true, "dt": true, "dl": true, "figure": true, "figcaption": true,
}

// Parse loads an HTML guide into a structured Document. Heading tags h1-h6
// open sections; numbered headings ("5.4.2 Control Flow Instructions")
// contribute the section number. Code blocks (<pre>, <code> spanning a whole
// block) are dropped — the advising pipeline works on prose.
func Parse(html string) *Document {
	doc := &Document{}
	tokens := tokenize(html)

	var cur strings.Builder
	inHeading := 0 // >0: collecting heading text at that level
	inTitle := false
	inPre := false
	headingText := strings.Builder{}

	flush := func() {
		text := normalizeSpace(DecodeEntities(cur.String()))
		cur.Reset()
		if text == "" {
			return
		}
		if len(doc.Sections) == 0 {
			doc.Sections = append(doc.Sections, Section{Title: "Preamble", Level: 1})
		}
		s := &doc.Sections[len(doc.Sections)-1]
		s.Blocks = append(s.Blocks, text)
	}

	for _, tok := range tokens {
		switch tok.kind {
		case textToken:
			if inTitle {
				doc.Title += tok.text
				continue
			}
			if inPre {
				continue
			}
			if inHeading > 0 {
				headingText.WriteString(tok.text)
			} else {
				cur.WriteString(tok.text)
			}
		case startTagToken, selfClosingToken:
			switch {
			case tok.name == "title":
				inTitle = true
			case tok.name == "pre" || tok.name == "code":
				if tok.name == "pre" {
					flush()
					inPre = true
				}
			case isHeading(tok.name):
				flush()
				inHeading = int(tok.name[1] - '0')
				headingText.Reset()
			case blockTags[tok.name]:
				flush()
			}
		case endTagToken:
			switch {
			case tok.name == "title":
				inTitle = false
				doc.Title = normalizeSpace(DecodeEntities(doc.Title))
			case tok.name == "pre":
				inPre = false
			case isHeading(tok.name) && inHeading > 0:
				title := normalizeSpace(DecodeEntities(headingText.String()))
				num := ""
				if m := sectionNumberRe.FindStringSubmatch(title); m != nil {
					num = m[1]
					title = strings.TrimSpace(title[len(m[0]):])
				}
				doc.Sections = append(doc.Sections, Section{
					Number: num, Title: title, Level: inHeading,
				})
				inHeading = 0
			case blockTags[tok.name]:
				flush()
			default:
				// inline tag inside text: keep a space so words don't fuse
				if inHeading == 0 && !inPre {
					cur.WriteByte(' ')
				}
			}
		}
	}
	flush()
	return doc
}

func isHeading(name string) bool {
	return len(name) == 2 && name[0] == 'h' && name[1] >= '1' && name[1] <= '6'
}

func normalizeSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// Sentences splits every block of every section into sentences, preserving
// the section back-pointer.
func (d *Document) Sentences() []Sentence {
	var out []Sentence
	for si := range d.Sections {
		for _, block := range d.Sections[si].Blocks {
			for _, s := range textproc.SentenceStrings(block) {
				out = append(out, Sentence{Text: s, Section: si})
			}
		}
	}
	return out
}

// Keys returns what identifies each sentence of d (see internal/doc): its
// section's path and its text. The path is "" when d is nil or the
// sentence's section index is out of range. Each section's path is
// computed once.
func Keys(d *Document, sents []Sentence) []doc.Key {
	var paths []string
	if d != nil {
		paths = make([]string, len(d.Sections))
		for i := range d.Sections {
			paths[i] = d.Sections[i].Path()
		}
	}
	keys := make([]doc.Key, len(sents))
	for i, s := range sents {
		keys[i].Text = s.Text
		if s.Section >= 0 && s.Section < len(paths) {
			keys[i].Section = paths[s.Section]
		}
	}
	return keys
}

// SentenceCount returns the total number of sentences in the document.
func (d *Document) SentenceCount() int {
	return len(d.Sentences())
}

// SectionByNumber finds a section by its number string ("5.4.2"); returns
// nil when absent.
func (d *Document) SectionByNumber(num string) *Section {
	for i := range d.Sections {
		if d.Sections[i].Number == num {
			return &d.Sections[i]
		}
	}
	return nil
}

// FromBlocks builds a Document directly from pre-extracted text blocks with
// section titles — the path used for non-HTML sources (the artifact notes
// raw documents "can be in various formats"; the corpus generator uses this).
func FromBlocks(title string, sections []Section) *Document {
	return &Document{Title: title, Sections: sections}
}
