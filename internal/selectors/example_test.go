package selectors_test

import (
	"fmt"

	"repro/internal/nlp"
	"repro/internal/selectors"
)

// Example classifies the paper's category-III example sentence.
func Example() {
	r := selectors.Default()
	res := r.ClassifyAnnotated(nlp.Annotate("This synchronization guarantee can often be leveraged to avoid explicit clWaitForEvents() calls between command submissions."))
	fmt.Println(res.Advising, res.Selector)
	// Output:
	// true comparative/passive (xcomp)
}

// ExampleRecognizer_SelectorAnnotated shows the imperative rule (selector 3)
// in isolation.
func ExampleRecognizer_SelectorAnnotated() {
	r := selectors.Default()
	fmt.Println(r.SelectorAnnotated(3, nlp.Annotate("Avoid bank conflicts in shared memory.")))
	fmt.Println(r.SelectorAnnotated(3, nlp.Annotate("The compiler avoids bank conflicts automatically.")))
	// Output:
	// true
	// false
}
