package core

// The brute-force fuzz decoder, shared with the external test package's
// fuzz target over the baseline miners (which import core, so their
// target cannot live in core's own tests).
var (
	FuzzDB       = fuzzDB
	FuzzCorpus   = fuzzCorpus
	FuzzMaxBytes = fuzzMaxBytes
)
