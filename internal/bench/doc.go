// Package bench is the experiment harness that regenerates every
// quantitative claim of the paper: one registered experiment per theorem,
// lemma, observation, corollary (E1–E13), and design ablation (A1–A4),
// each emitting a table whose rows are reproduced verbatim in
// EXPERIMENTS.md. cmd/shortcutbench and the repository-level benchmarks
// are thin wrappers around this registry; any violated bound renders as a
// NO cell and fails TestAllExperimentsQuick, and TestExperimentsVerbatim
// holds every full-size table to EXPERIMENTS.md byte for byte.
//
// The package's tests also gate the cost of observing a build:
// TestStageCollectionOverhead fails when stage collection
// (shortcut.Options.CollectStages, which the daemon's tracing turns on for
// every cold build) adds more than 2.5% to a warm Builder's grid:64x64
// build, read as the median ratio over 3000 interleaved pairs.
//
// # Role in the DAG
//
// Depends on every algorithmic package (graph, partition, tree, minor,
// shortcut, congest, dist) but nothing depends on it except
// cmd/shortcutbench and the repository benchmarks — it is a leaf. The
// EXPERIMENTS.md preamble documents the exact command that regenerates
// each table.
package bench
