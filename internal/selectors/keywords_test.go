package selectors

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/depparse"
)

// TestEveryFlaggingWordTriggers builds one representative sentence per
// FLAGGING WORDS entry and asserts selector 1 accepts it — the Table 2 set
// must be live end to end, including stemming of inflected uses.
func TestEveryFlaggingWordTriggers(t *testing.T) {
	r := Default()
	// hand-written carriers where naive embedding would be ungrammatical
	carriers := map[string]string{
		"better":                  "Texture fetches perform better for this access shape.",
		"best performance":        "The best performance comes from fully populated warps.",
		"higher performance":      "Fused kernels deliver higher performance on this device.",
		"maximum performance":     "Maximum performance requires all engines to stay busy.",
		"peak performance":        "Peak performance demands coalesced access on every lane.",
		"improve the performance": "Loop tiling will improve the performance of the solver.",
		"higher impact":           "Fixing the memory path has a higher impact than tuning arithmetic.",
		"more appropriate":        "A scatter layout is more appropriate for this workload.",
		"should":                  "The working set should fit in the first level cache.",
		"high bandwidth":          "Staging buffers exploit the high bandwidth of on-chip memory.",
		"benefit":                 "Long-running kernels benefit from persistent threads.",
		"high throughput":         "Batched launches sustain high throughput on small tasks.",
		"prefer":                  "Experienced authors prefer explicit synchronization here.",
		"effective way":           "Tiling is an effective way of exposing reuse.",
		"one way to":              "One way to cut launch overhead is kernel fusion.",
		"the key to":              "Locality is the key to sustained throughput.",
		"contribute to":           "Unaligned accesses contribute to transaction inflation.",
		"can be used to":          "Events can be used to order work across queues.",
		"can lead to":             "Oversubscription can lead to cache thrashing.",
		"reduce":                  "Wider loads reduce the instruction count of the copy loop.",
		"can help":                "Prefetching can help on strided streams.",
		"can be important":        "Launch order can be important for queue overlap.",
		"can be useful":           "Warm-up runs can be useful before timing.",
		"is important":            "Alignment is important for vector loads.",
		"help avoid":              "Private counters help avoid atomic contention.",
		"can avoid":               "Persistent kernels can avoid repeated launch costs.",
		"instead":                 "Fetch the value from constant memory instead.",
		"is desirable":            "A contiguous layout is desirable for the inner loop.",
		"good choice":             "Texture memory is a good choice for stencil reads.",
		"ideal choice":            "Shared memory is the ideal choice for the halo cells.",
		"good idea":               "Checking the occupancy first is a good idea.",
		"good start":              "Profiling the hottest kernel is a good start.",
		"encouraged":              "Vendors have encouraged this pattern for years.",
	}
	for _, kw := range DefaultConfig().FlaggingWords {
		sentence, ok := carriers[kw]
		if !ok {
			sentence = fmt.Sprintf("This technique %s in most kernels.", kw)
		}
		if !accepts(r, 1, sentence) {
			t.Errorf("flagging word %q: selector 1 rejected carrier %q", kw, sentence)
		}
	}
}

// TestEveryImperativeWordTriggers builds an imperative sentence for every
// IMPERATIVE WORDS entry and asserts selector 3 accepts it.
func TestEveryImperativeWordTriggers(t *testing.T) {
	r := Default()
	objects := map[string]string{
		"use":       "Use the on-chip buffer for the partial sums.",
		"avoid":     "Avoid atomic updates inside the inner loop.",
		"create":    "Create the streams once during initialization.",
		"make":      "Make the innermost dimension contiguous.",
		"map":       "Map each tile onto one compute unit.",
		"align":     "Align the buffer to the vector width.",
		"add":       "Add a prefetch for the next tile.",
		"change":    "Change the layout from interleaved to planar.",
		"ensure":    "Ensure the queue never drains between batches.",
		"call":      "Call the asynchronous variant of the copy.",
		"unroll":    "Unroll the cleanup loop by hand.",
		"move":      "Move the allocation out of the timestep loop.",
		"select":    "Select the tile size from the calibration table.",
		"schedule":  "Schedule the independent passes back to back.",
		"switch":    "Switch the accumulation to the tree form.",
		"transform": "Transform the gather into a scan followed by a pack.",
		"pack":      "Pack the flags into a single word.",
	}
	for _, kw := range DefaultConfig().ImperativeWords {
		sentence, ok := objects[kw]
		if !ok {
			t.Fatalf("no carrier sentence for imperative word %q", kw)
		}
		if !accepts(r, 3, sentence) {
			t.Errorf("imperative word %q: selector 3 rejected %q\n%s",
				kw, sentence, depparse.ParseText(sentence))
		}
	}
}

// TestEveryKeySubjectTriggers puts every KEY SUBJECTS entry in subject
// position and asserts selector 4 accepts it, singular and plural.
func TestEveryKeySubjectTriggers(t *testing.T) {
	r := Default()
	for _, kw := range DefaultConfig().KeySubjects {
		for _, form := range []string{kw, plural(kw)} {
			sentence := fmt.Sprintf("The %s can tune the launch parameters for the device.", form)
			if !accepts(r, 4, sentence) {
				t.Errorf("key subject %q (form %q): selector 4 rejected %q\n%s",
					kw, form, sentence, depparse.ParseText(sentence))
			}
		}
	}
}

func plural(w string) string {
	if strings.HasSuffix(w, "s") {
		return w + "es"
	}
	return w + "s"
}

// TestEveryKeyPredicateTriggers wraps every KEY PREDICATES entry in a
// purpose clause and asserts selector 5 accepts it.
func TestEveryKeyPredicateTriggers(t *testing.T) {
	r := Default()
	for _, kw := range DefaultConfig().KeyPredicates {
		sentence := fmt.Sprintf("Restructure the loop nest to %s a full overlap of the two phases.", kw)
		if !accepts(r, 5, sentence) {
			t.Errorf("key predicate %q: selector 5 rejected %q\n%s",
				kw, sentence, depparse.ParseText(sentence))
		}
	}
}

// TestXcompGovernorsTrigger exercises each XCOMP GOVERNORS entry in a frame
// that produces the xcomp relation: verbs with infinitival/gerund
// complements, adjectives and participles in predicative position.
func TestXcompGovernorsTrigger(t *testing.T) {
	r := Default()
	frames := map[string]string{
		"prefer":      "Expert authors prefer using events for cross-queue ordering.",
		"best":        "It is best to size the pool at startup.",
		"faster":      "It is faster to rebuild the table than to patch it.",
		"better":      "It is better to recompute the value than to store it.",
		"efficient":   "It is more efficient to batch the updates than to flush each one.",
		"beneficial":  "It is beneficial to keep both queues busy.",
		"appropriate": "It is appropriate to pin the staging area.",
		"recommended": "It is recommended to queue the kernels in submission order.",
		"encouraged":  "Authors are encouraged to measure before tuning.",
		"leveraged":   "The guarantee can be leveraged to skip the final barrier.",
		"important":   "It is important to keep the hot data resident.",
		"useful":      "It is useful to record an event per batch.",
		"required":    "The host is required to retain the buffer until completion.",
		"controlled":  "Spilling can be controlled using the launch bounds.",
	}
	for _, kw := range DefaultConfig().XcompGovernors {
		sentence, ok := frames[kw]
		if !ok {
			t.Fatalf("no carrier for xcomp governor %q", kw)
		}
		if !accepts(r, 2, sentence) {
			t.Errorf("xcomp governor %q: selector 2 rejected %q\n%s",
				kw, sentence, depparse.ParseText(sentence))
		}
	}
}
