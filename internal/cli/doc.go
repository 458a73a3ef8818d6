// Package cli holds the textual spec languages shared by the command-line
// tools and the daemon: graph-family specs like "grid:16x16" or
// "ktree:200,4" (ParseGraph), partition specs like "blobs:32"
// (ParsePartition), and the key=value form of shortcut build options a
// request may carry (ParseBuildOptions).
//
// # Role in the DAG
//
// Depends on internal/graph, internal/partition, and internal/shortcut.
// Consumed by cmd/locshortd (request parsing), cmd/loadgen (binary
// ingest), cmd/congestsim, cmd/minorfind, and the internal/store tests; it
// exists so every surface speaks the same spec language as the
// documentation.
package cli
