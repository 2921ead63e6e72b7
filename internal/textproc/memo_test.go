package textproc

import (
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// sharedSlotWords returns n words whose first memo slot is the same and
// whose second slots are all different, stemmable inflections so a racing
// writer publishes a stem unlike the word.
func sharedSlotWords(t *testing.T, n int) []string {
	t.Helper()
	groups := make(map[uint64][]string)
	taken := make(map[[2]uint64]bool) // (first, second) slot pairs in use
	for i := 0; i < 1<<16; i++ {
		stem := []byte("tr")
		for k := i; ; k /= 26 {
			stem = append(stem, byte('a'+k%26))
			if k < 26 {
				break
			}
		}
		w := string(stem) + "ations"
		first, second := memoSlots([]byte(w))
		if first == second || taken[[2]uint64{first, second}] {
			continue
		}
		taken[[2]uint64{first, second}] = true
		if groups[first] = append(groups[first], w); len(groups[first]) == n {
			return groups[first]
		}
	}
	t.Fatalf("no %d words share a first memo slot", n)
	return nil
}

// memoEntryOf returns the memo entry holding the lowercased word w, or nil.
func memoEntryOf(w string) *memoEntry {
	i1, i2 := memoSlots([]byte(w))
	for _, i := range []uint64{i1, i2} {
		if e := memo[i].Load(); e != nil && e.word == w {
			return e
		}
	}
	return nil
}

// TestStemMemoSharedSlot checks words that share their first memo slot.
// Alone, they settle into slots of their own, so once warm, stemming them
// allocates nothing. Then goroutines stem them, in upper and lower case,
// while another keeps emptying the memo, so lookups race with writers
// publishing entries into the shared slot. Each result must equal the
// reference, and -race must see no unsynchronized access.
func TestStemMemoSharedSlot(t *testing.T) {
	words := sharedSlotWords(t, 4)
	ResetStemMemo()
	for _, w := range words {
		Stem(w)
	}
	for _, w := range words {
		if memoEntryOf(w) == nil {
			t.Fatalf("%q was evicted by a word sharing its first slot", w)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, w := range words {
			Stem(w)
		}
	}); n != 0 {
		t.Errorf("stemming memoized words allocated %v times per run, want 0", n)
	}

	stop := make(chan struct{})
	reset := make(chan struct{})
	go func() {
		defer close(reset)
		for {
			select {
			case <-stop:
				return
			default:
				ResetStemMemo()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				w := words[(g+i)%len(words)]
				if i%2 == 1 {
					w = strings.ToUpper(w)
				}
				if got, want := Stem(w), refStem(w); got != want {
					t.Errorf("Stem(%q) = %q, want %q", w, got, want)
					return
				}
				text := "the " + w + " of " + words[(g+i+1)%len(words)]
				if got, want := NormalizeTerms(text), refNormalizeTerms(text); strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("NormalizeTerms(%q) = %q, want %q", text, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-reset
}

// TestStemMemoBounds checks what the memo holds: lowercased copies, never
// the caller's bytes, and nothing for non-ASCII or over-long words.
func TestStemMemoBounds(t *testing.T) {
	ResetStemMemo()
	for _, c := range []struct{ in, word, stem string }{
		{"Coalescing", "coalescing", "coalesc"},
		{"x86", "x86", "x86"}, // the stem is the word
	} {
		in := strings.Clone(c.in) // as a request body would hand it over
		Stem(in)
		e := memoEntryOf(c.word)
		if e == nil || e.word != c.word || e.stem != c.stem || e.stop {
			t.Fatalf("memo entry %+v, want %s -> %s", e, c.word, c.stem)
		}
		if unsafe.StringData(e.word) == unsafe.StringData(in) || unsafe.StringData(e.stem) == unsafe.StringData(in) {
			t.Errorf("memo entry for %q points into the caller's string", c.in)
		}
	}
	for _, w := range []string{"\u0130s", "\u212Aeeping", "\u017Ftride", "caf\xff", strings.Repeat("a", memoMaxWord+1)} {
		if got, want := Stem(w), refStem(w); got != want {
			t.Errorf("Stem(%q) = %q, want %q", w, got, want)
		}
		if memoize(w) != nil {
			t.Errorf("memoize(%q) returned an entry; non-ASCII and long words skip the memo", w)
		}
	}
	n := 0
	for i := range memo {
		if memo[i].Load() != nil {
			n++
		}
	}
	if n != 2 {
		t.Errorf("memo holds %d entries, want 2", n)
	}
	if memoize(strings.Repeat("a", memoMaxWord)) == nil {
		t.Errorf("a %d-byte ASCII word skipped the memo", memoMaxWord)
	}
}
