// Package pmihp is a from-scratch Go reproduction of "Parallel Mining of
// Association Rules from Text Databases on a Cluster of Workstations"
// (Holt & Chung, IPDPS 2004).
//
// The module implements the paper's contribution — the sequential MIHP
// miner (Multipass-Apriori + Inverted Hashing and Pruning + transaction
// trimming) and its parallel version PMIHP with asynchronous per-node
// miners, cascaded TID hash tables and peer polling — together with every
// substrate and baseline its evaluation depends on: Apriori, DHP,
// FP-Growth, Count Distribution, a simulated cluster of workstations, a
// synthetic WSJ-like corpus generator, the text-preprocessing pipeline,
// association-rule generation, and rule-driven query expansion.
//
// Entry points:
//
//   - internal/core: MineMIHP and MinePMIHP (the paper's algorithms)
//   - internal/experiments: one runner per figure/table of the evaluation
//   - cmd/pmihp-mine: mine a corpus in process (mine), on pmihp-node
//     workers (cluster), through a worker pool (sched) or as a day stream
//     (stream)
//   - cmd/pmihp-node: the cluster worker daemon
//   - cmd/pmihp-serve: serves a mined rule export over HTTP
//   - cmd/pmihp-trace: validates and replays an observability trace
//   - cmd/pmihp-bench: the figure experiments and the serving load test
//   - cmd/corpusgen: writes a synthetic corpus
//   - examples/: runnable end-to-end programs
//
// See README.md for a walkthrough, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for the paper-vs-measured record.
// internal/benchharness holds the workload behind each figure: its golden
// test pins what each one reproduces, and BenchmarkFigures times them.
package pmihp
