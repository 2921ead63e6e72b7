package vsm_test

import (
	"context"
	"fmt"

	"repro/internal/textproc"
	"repro/internal/vsm"
)

// Example retrieves the most relevant sentence for a query.
func Example() {
	ix := vsm.Build([]string{
		"Use shared memory to reduce global memory traffic.",
		"Avoid bank conflicts in shared memory.",
		"The warp size is thirty-two threads.",
	})
	terms := textproc.NormalizeTerms("bank conflicts")
	matches, _ := ix.Query(context.Background(), terms, vsm.QueryOpts{Threshold: vsm.DefaultThreshold})
	fmt.Println(matches[0].Index)
	// Output:
	// 1
}
