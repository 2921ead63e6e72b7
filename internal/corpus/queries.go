package corpus

import "math/rand"

// Query is one Table 6 workload: a performance issue extracted from an
// NVVP-style report, the query text the advisor receives, and the subtopic
// tag defining its relevance ground truth.
type Query struct {
	Report   string // the profiling report this issue came from
	Issue    string // the issue title as the paper's Table 6 lists it
	Text     string // issue title + description, used as the query
	Subtopic string // nuggets with this subtopic are the ground truth
}

// CUDAQueries returns the six performance-issue queries of the paper's
// Table 6 (two issues each for knnjoin and trans, one each for the
// optimized variants).
func CUDAQueries() []Query {
	return []Query{
		{
			Report:   "knnjoin",
			Issue:    "Low Warp Execution Efficiency",
			Subtopic: "warp-efficiency",
			Text: "Low warp execution efficiency. Compute resources are used most " +
				"efficiently when all threads in a warp execute together; " +
				"under-populated warps and ragged loop bounds lower warp execution " +
				"efficiency. Choose the number of threads per block as a multiple " +
				"of the warp size, size the grid to several blocks per " +
				"multiprocessor so warp slots stay filled at barriers, split an " +
				"oversized block into smaller blocks so the scheduler can cover " +
				"stalls, use a launch configuration that keeps every warp " +
				"scheduler supplied with eligible warps, assign complete warps to " +
				"uniform work, and avoid barrier calls between producer and " +
				"consumer warps.",
		},
		{
			Report:   "knnjoin",
			Issue:    "Divergent Branches",
			Subtopic: "divergence",
			Text: "Divergent branches. Compute resources are used most " +
				"efficiently when every thread of a warp has the same branching " +
				"behavior; when the branching depends on the thread ID, the " +
				"branch is divergent and the execution paths serialize. Rewrite " +
				"the controlling condition so as to minimize the number of " +
				"divergent warps, and schedule the work items so that neighboring " +
				"threads take the same branch direction.",
		},
		{
			Report:   "knnjoin_opt",
			Issue:    "Global Memory Alignment and Access Pattern",
			Subtopic: "mem-alignment",
			Text: "Global memory alignment and access pattern. Accesses that are " +
				"not aligned to the transaction size or that stride across " +
				"segment boundaries split into extra transactions. Improve " +
				"coalescing and alignment: align the base address of each array " +
				"to the transaction size, align rows of two-dimensional arrays " +
				"with padding at segment boundaries, use data types that satisfy " +
				"the alignment requirement, keep the per-thread access pattern at " +
				"a stride of one word, reorganize data into a structure of arrays " +
				"instead of an array of structures, and stage irregular accesses " +
				"through shared memory so the global phase stays coalesced.",
		},
		{
			Report:   "trans",
			Issue:    "GPU Utilization is Limited by Memory Instruction Execution",
			Subtopic: "mem-instruction",
			Text: "GPU utilization is limited by memory and arithmetic instruction " +
				"execution. Too many low-throughput arithmetic instructions, " +
				"synchronization points, and divergent control flow occupy the " +
				"issue slots. Maximize instruction throughput by trading precision " +
				"for speed, using intrinsic functions instead of the regular math " +
				"library, using single-precision constants with an f suffix " +
				"instead of the double-precision path, flushing denormalized " +
				"numbers to zero, favoring shifts and masks over integer division, " +
				"using restricted pointers so the compiler can reorder loads, " +
				"avoiding synchronization points, and replacing divergent branches " +
				"with predication.",
		},
		{
			Report:   "trans",
			Issue:    "Instruction Latencies may be Limiting Performance",
			Subtopic: "instr-latency",
			Text: "Instruction latencies may be limiting performance. Warps stall " +
				"waiting on the scoreboard because too few warps are resident and " +
				"the kernel exposes little instruction-level parallelism. Hide the " +
				"latency of each instruction by keeping enough warps and multiple " +
				"resident blocks per multiprocessor, maximize parallel execution " +
				"between the host and the devices, control register usage with " +
				"the maxrregcount compiler option or launch bounds, tune occupancy " +
				"with the occupancy calculator and the block size, parameterize " +
				"the execution configuration on register file and shared memory " +
				"size, interleave independent arithmetic between a load and its " +
				"first use to minimize scoreboard stalls, expose instruction-level " +
				"parallelism, and control loop unrolling with the pragma directive.",
		},
		{
			Report:   "trans_opt",
			Issue:    "GPU Utilization is Limited by Memory Bandwidth",
			Subtopic: "mem-bandwidth",
			Text: "GPU utilization is limited by memory bandwidth. The kernel " +
				"saturates device memory or host transfer bandwidth. Minimize and " +
				"avoid unnecessary data transfers between the host and the device, " +
				"batch many small transfers into a single large one to raise " +
				"effective bandwidth, use page-locked or pinned host memory mapped " +
				"into the device address space, use write-combined host " +
				"allocations for buffers the host only writes, stage reused tiles " +
				"and the halo region in shared memory to minimize redundant " +
				"traffic, overlap transfers with kernels using streams and keep " +
				"transfers outstanding in both directions for peak bus " +
				"utilization, recompute values on the device rather than fetch " +
				"them over the bus, move intermediate data structures entirely " +
				"into device memory, use the texture path for read-only data, " +
				"coalesce writes as aggressively as reads, size the working set " +
				"of each block to fit the cache, and avoid mapping the same " +
				"buffer for read and write when a private accumulator suffices.",
		},
	}
}

// GroundTruth returns the indices (into g.Sentences) of the sentences whose
// subtopic matches the query — the relevance ground truth of Table 6.
func (g *Guide) GroundTruth(q Query) []int {
	var out []int
	for i, l := range g.Labels {
		if l.Subtopic == q.Subtopic {
			out = append(out, i)
		}
	}
	return out
}

// SimulateRaters produces nRaters independent advising/non-advising label
// vectors: each rater reproduces the ground truth but disagrees with small
// probability — higher on sentences the generator marked ambiguous, matching
// the paper's observation that "some sentences are ambiguous in whether they
// are advising sentences" yet Fleiss' kappa stays above 0.8.
func SimulateRaters(labels []Label, nRaters int, seed int64) [][]bool {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]bool, nRaters)
	for r := range out {
		v := make([]bool, len(labels))
		for i, l := range labels {
			p := 0.015
			if l.Ambiguous {
				p = 0.20
			}
			if rng.Float64() < p {
				v[i] = !l.Advising
			} else {
				v[i] = l.Advising
			}
		}
		out[r] = v
	}
	return out
}
