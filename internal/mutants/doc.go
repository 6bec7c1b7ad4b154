// Package mutants holds the mutant catalogue (testdata/mutants.txt): seeded
// faults — in the code that takes pooled storage over, in the ordered
// engine and the trace analyzer, reintroduced bugs, broken oracles, and an
// unread exported method and an unset exported field for the API gates —
// each with the tests that must catch it. Its test builds and tests every
// mutant through a `go test -overlay`, so the catalogue never touches the
// tree:
//
//	RPIVIDEO_MUTANTS=1 go test -timeout 30m ./internal/mutants
//
// Without RPIVIDEO_MUTANTS=1 the test skips: each mutant is a build and a
// test run of its packages.
package mutants
