// Test-only exports for the black-box tests of package core_test
// (invariant_test.go, fuzz_test.go), which check the solvers with
// internal/invariant: invariant imports internal/online, which imports core,
// so tests inside package core cannot.

package core

var (
	Problem                 = problem
	SingleProblem           = singleProblem
	RequireMatchesReference = requireMatchesReference
)
