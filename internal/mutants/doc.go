// Package mutants holds the mutant catalogue (testdata/mutants.txt): seeded
// faults — in the code that takes pooled storage over, in the ordered
// engine, the trace analyzer and the playback of a recorded radio,
// reintroduced bugs, broken oracles, and an unread exported method, an
// unset exported field and a hook matched by name only for the API gates —
// each with the tests that must catch it. Its test builds and tests every
// mutant through a `go test -overlay`, so the catalogue never touches the
// tree:
//
//	RPIVIDEO_MUTANTS=1 go test -timeout 30m ./internal/mutants
//
// Without RPIVIDEO_MUTANTS=1 the test skips: each mutant is a build and a
// test run of its packages.
package mutants
