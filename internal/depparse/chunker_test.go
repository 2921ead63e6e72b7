package depparse

import (
	"testing"

	"repro/internal/postag"
	"repro/internal/textproc"
)

// chunkKinds tags and chunks a sentence and returns the kind sequence.
func chunkKinds(s string) ([]chunkKind, []chunk) {
	words := textproc.Words(s)
	tags := postag.Tags(words)
	chunks := (&chunker{words, textproc.AppendLower(nil, words), tags}).chunks(nil)
	kinds := make([]chunkKind, len(chunks))
	for i, c := range chunks {
		kinds[i] = c.kind
	}
	return kinds, chunks
}

func TestChunkerBasicSequence(t *testing.T) {
	kinds, chunks := chunkKinds("The compiler unrolls small loops.")
	want := []chunkKind{npChunk, vgChunk, npChunk, punctTok}
	if len(kinds) != len(want) {
		t.Fatalf("kinds %v, want %v (%+v)", kinds, want, chunks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kind %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	// NP heads are the final nouns
	if chunks[0].head != 1 { // "compiler"
		t.Errorf("first NP head %d", chunks[0].head)
	}
	if chunks[2].head != 4 { // "loops"
		t.Errorf("second NP head %d", chunks[2].head)
	}
}

func TestChunkerVerbGroupSpan(t *testing.T) {
	_, chunks := chunkKinds("The guarantee can often be leveraged to avoid calls.")
	var vg *chunk
	for i := range chunks {
		if chunks[i].kind == vgChunk && !chunks[i].hasTo {
			vg = &chunks[i]
			break
		}
	}
	if vg == nil {
		t.Fatal("no main verb group")
	}
	// "can often be leveraged": start at "can" (2), head at "leveraged" (5)
	if vg.start != 2 || vg.head != 5 {
		t.Errorf("vg span [%d..%d] head %d", vg.start, vg.end, vg.head)
	}
	if !vg.passive {
		t.Error("passive not detected")
	}
}

func TestChunkerInfinitiveMarked(t *testing.T) {
	_, chunks := chunkKinds("Use buffers to avoid copies.")
	var toVG *chunk
	for i := range chunks {
		if chunks[i].kind == vgChunk && chunks[i].hasTo {
			toVG = &chunks[i]
		}
	}
	if toVG == nil {
		t.Fatal("no infinitival verb group")
	}
}

func TestChunkerSoAsCoordinator(t *testing.T) {
	kinds, _ := chunkKinds("Pinning takes time, so avoid pinning costs.")
	foundCC := false
	for _, k := range kinds {
		if k == ccMarker {
			foundCC = true
		}
	}
	if !foundCC {
		t.Errorf("no ccMarker for 'so': %v", kinds)
	}
}

func TestChunkerSubordinators(t *testing.T) {
	kinds, _ := chunkKinds("If the kernel stalls, raise the occupancy.")
	if kinds[0] != subMarker {
		t.Errorf("'If' chunked as %v", kinds[0])
	}
	// "as a multiple of the warp size" — prepositional "as", no subordinator
	kinds2, _ := chunkKinds("Choose the size as a multiple of the warp size.")
	for i, k := range kinds2 {
		if k == subMarker {
			t.Errorf("prepositional 'as' chunked as subordinator at %d: %v", i, kinds2)
		}
	}
}

func TestChunkerGerundSubjectIsNP(t *testing.T) {
	_, chunks := chunkKinds("Pinning takes time.")
	if chunks[0].kind != npChunk {
		t.Errorf("gerund subject chunked as %v", chunks[0].kind)
	}
}

func TestChunkerCoversAllTokens(t *testing.T) {
	sentences := []string{
		"The number of threads per block should be chosen as a multiple of the warp size.",
		"Thus, a developer may prefer using buffers instead of images if no sampling operation is needed.",
		"Do not use mapped memory for large transfers.",
	}
	for _, s := range sentences {
		words := textproc.Words(s)
		tags := postag.Tags(words)
		chunks := (&chunker{words, textproc.AppendLower(nil, words), tags}).chunks(nil)
		covered := make([]bool, len(words))
		for _, c := range chunks {
			if c.start < 0 || c.end >= len(words) || c.start > c.end {
				t.Fatalf("%q: bad span %+v", s, c)
			}
			if c.head < c.start || c.head > c.end {
				t.Fatalf("%q: head outside span %+v", s, c)
			}
			for i := c.start; i <= c.end; i++ {
				if covered[i] {
					t.Fatalf("%q: token %d covered twice", s, i)
				}
				covered[i] = true
			}
		}
		for i, c := range covered {
			if !c {
				t.Errorf("%q: token %d (%s) not chunked", s, i, words[i])
			}
		}
	}
}
