// Package locshort is a complete Go implementation of
//
//	Ghaffari & Haeupler, "Low-Congestion Shortcuts for Graphs Excluding
//	Dense Minors", PODC 2021 (arXiv:2008.03091),
//
// together with everything the paper builds on: a CONGEST-model network
// simulator, the centralized and distributed shortcut constructions, the
// part-wise aggregation primitive with randomized contention scheduling,
// and the shortcut-based minimum spanning tree and minimum cut algorithms.
//
// # Quick start
//
//	g := locshort.Grid(32, 32)                       // a planar network
//	p, _ := locshort.BFSBlobs(g, 32, rng)            // 32 connected parts
//	res, _ := locshort.Build(g, p, locshort.BuildOptions{})
//	q := locshort.Measure(res.Shortcut)
//	fmt.Println(q.Congestion, q.Dilation)            // O(δD log n), O(δD)
//
// The central objects:
//
//   - Graph: undirected multigraph with stable edge IDs (the congestion
//     accounting unit) and generators for every family evaluated in the
//     paper, including the Lemma 3.2 lower-bound topology.
//   - Partition: node-disjoint connected parts (Definition 2.1).
//   - Build: the Theorem 3.1 construction — tree-restricted partial
//     shortcuts via the overcongested-edge process, the Observation 2.7
//     halving loop, and a parameter-free doubling search over δ'; with
//     BuildOptions.Certify it becomes the certifying algorithm of the
//     Section 3.1 remark, emitting dense-minor witnesses on failure.
//   - Construct: the Theorem 1.5 distributed construction on the CONGEST
//     simulator, returning routing state for PartwiseAggregate.
//   - MST, MinCut: Corollaries 1.6 and 1.7.
//   - ServiceEngine: the concurrent serving layer — a content-addressed
//     shortcut cache with singleflight builds and a bounded worker pool,
//     the in-process core of the cmd/locshortd daemon. With a DurableStore
//     (OpenStore) plugged into ServiceConfig.Store, built shortcuts
//     persist and the engine warm-starts across restarts.
//
// See DESIGN.md for the architecture (§4 "Service layer" on
// fingerprinting, caching, and the job lifecycle; §5 "Builder and memory
// discipline"; §6 "Persistence and warm-start"), OPERATIONS.md for running
// the daemon, and EXPERIMENTS.md for the measured reproduction of every
// theorem, lemma, and corollary.
package locshort

import (
	"locshort/internal/congest"
	"locshort/internal/dist"
	"locshort/internal/graph"
	"locshort/internal/minor"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
	"locshort/internal/tree"
)

// Graph types and generators (see internal/graph).
type (
	// Graph is an undirected multigraph with stable edge IDs.
	Graph = graph.Graph
	// Edge is an undirected weighted edge.
	Edge = graph.Edge
	// Arc is one direction of an edge, as Graph.Neighbors lists it.
	Arc = graph.Arc
	// LowerBoundGraph is the Lemma 3.2 / Figure 3.2 hard instance.
	LowerBoundGraph = graph.LowerBoundGraph
)

// Graph constructors and algorithms re-exported from internal/graph.
var (
	NewGraph          = graph.New
	Path              = graph.Path
	Cycle             = graph.Cycle
	Complete          = graph.Complete
	Star              = graph.Star
	Wheel             = graph.Wheel
	Grid              = graph.Grid
	Torus             = graph.Torus
	KTree             = graph.KTree
	Caterpillar       = graph.Caterpillar
	RandomConnected   = graph.RandomConnected
	LowerBound        = graph.LowerBound
	RandomizeWeights  = graph.RandomizeWeights
	Diameter          = graph.Diameter
	Connected         = graph.Connected
	Kruskal           = graph.Kruskal
	StoerWagner       = graph.StoerWagner
	TorusChain        = graph.TorusChain
	SequentialBridges = graph.Bridges
	// ChooseRoot returns the near-central root of the graph's memoized
	// BFS tree; the first call on a graph runs the search.
	ChooseRoot = graph.ChooseRoot
)

// Partition types and constructors (see internal/partition).
type Partition = partition.Partition

// Partition constructors re-exported from internal/partition.
var (
	NewPartition = partition.New
	BFSBlobs     = partition.BFSBlobs
	FromLabels   = partition.FromLabels
	GridRows     = partition.GridRows
	WheelRim     = partition.WheelRim
	Singletons   = partition.Singletons
)

// Rooted trees (see internal/tree).
type RootedTree = tree.Rooted

// BFSTree roots a BFS tree of g at the given node.
var BFSTree = tree.FromBFS

// Shortcut machinery: the paper's primary contribution
// (see internal/shortcut).
type (
	// Shortcut assigns each part a subgraph H_i (Definition 2.2).
	Shortcut = shortcut.Shortcut
	// Quality is measured congestion/dilation/blocks.
	Quality = shortcut.Quality
	// BuildOptions configures Build.
	BuildOptions = shortcut.Options
	// BuildResult is Build's outcome.
	BuildResult = shortcut.Result
	// Partial is one run of the Theorem 3.1 overcongested-edge process.
	Partial = shortcut.Partial
	// ShortcutBuilder is the reusable flat-state construction core: it
	// owns the scratch memory of the Theorem 3.1 process and runs the
	// doubling search over delta' on it, one level at a time. Not safe
	// for concurrent use; pool Builders instead (the service engine does).
	ShortcutBuilder = shortcut.Builder
)

// Shortcut functions re-exported from internal/shortcut.
var (
	Build              = shortcut.Build
	NewShortcutBuilder = shortcut.NewBuilder
	BuildPartial       = shortcut.BuildPartial
	Measure            = shortcut.Measure
	TrivialShortcut    = shortcut.Trivial
	EmptyShortcut      = shortcut.NewEmpty
	ExtractCertificate = shortcut.ExtractCertificate
)

// ErrDeltaTooSmall is returned by Build for infeasible fixed delta levels.
var ErrDeltaTooSmall = shortcut.ErrDeltaTooSmall

// Graph minors (see internal/minor).
type MinorMapping = minor.Mapping

// Minor-density helpers re-exported from internal/minor.
var (
	GreedyDenseMinor      = minor.GreedyDenseMinor
	GenusDensityBound     = minor.GenusDensityBound
	TreewidthDensityBound = minor.TreewidthDensityBound
)

// PlanarDensityBound bounds the density of planar minors (Euler).
const PlanarDensityBound = minor.PlanarDensityBound

// CONGEST simulator (see internal/congest).
type (
	// Network is a synchronous CONGEST network.
	Network = congest.Network
	// Proc is a node program.
	Proc = congest.Proc
	// ProcFunc adapts a function to Proc.
	ProcFunc = congest.ProcFunc
	// NodeContext is a node's per-round view (send, inbox, halt).
	NodeContext = congest.Context
	// Msg is an O(log n)-bit message.
	Msg = congest.Msg
)

// NewNetwork creates a CONGEST network over g with one Proc per node.
var NewNetwork = congest.NewNetwork

// Distributed algorithms (see internal/dist).
type (
	// ConstructOptions configures the Theorem 1.5 distributed
	// construction; ConstructResult carries the shortcut, routing state,
	// and round breakdown.
	ConstructOptions = dist.ConstructOptions
	ConstructResult  = dist.ConstructResult
	// PARouting is installed per-part aggregation routing state.
	PARouting = dist.PARouting
	// Payload is a part-wise aggregation value.
	Payload = dist.Payload
	// MSTOptions / MSTResult drive the Corollary 1.6 algorithm.
	MSTOptions = dist.MSTOptions
	MSTResult  = dist.MSTResult
	// MinCutOptions / MinCutResult drive the Corollary 1.7 algorithm.
	MinCutOptions = dist.MinCutOptions
	MinCutResult  = dist.MinCutResult
	// CCResult reports sub-graph connectivity (a Section 1.2 application).
	CCResult = dist.CCResult
	// RoundBreakdown itemizes measured/synchronization/charged rounds.
	RoundBreakdown = dist.Rounds
)

// Distributed algorithm entry points re-exported from internal/dist.
var (
	BuildBFSTree                = dist.BuildBFSTree
	Construct                   = dist.Construct
	NewPARouting                = dist.NewPARouting
	PartwiseAggregate           = dist.PartwiseAggregate
	MST                         = dist.MST
	MinCut                      = dist.MinCut
	OneRespectingCuts           = dist.OneRespectingCuts
	SubgraphComponents          = dist.SubgraphComponents
	Bridges                     = dist.Bridges
	ReferenceSubgraphComponents = dist.ReferenceSubgraphComponents
	SameComponents              = dist.SameComponents
)

// Aggregation operators and construction variants.
const (
	OpSum = dist.OpSum
	OpMin = dist.OpMin
	OpMax = dist.OpMax

	VariantRandomized    = dist.Randomized
	VariantDeterministic = dist.Deterministic

	ProviderDistributed     = dist.ProviderDistributed
	ProviderCentral         = dist.ProviderCentral
	ProviderCentralAdaptive = dist.ProviderCentralAdaptive
	ProviderTrivial         = dist.ProviderTrivial
)

// Serving layer: the concurrent shortcut-serving engine with its
// content-addressed cache (see internal/service and cmd/locshortd).
type (
	// ServiceEngine caches and concurrently serves shortcut constructions.
	// AddGraph registers the canonical form of the graph it is given
	// (edges normalized to u < v and sorted), so the edge IDs in results
	// refer to Graph(fp), which may be a different instance from the graph
	// passed in.
	ServiceEngine = service.Engine
	// ServiceConfig tunes the engine's worker pool and cache.
	ServiceConfig = service.Config
	// ServiceStats is an atomic snapshot of the engine counters.
	ServiceStats = service.Stats
	// Fingerprint is a stable 64-bit content address for graphs,
	// partitions, and built shortcuts.
	Fingerprint = service.Fingerprint
	// CachedShortcut is a resident built shortcut with memoized quality
	// and aggregation routing.
	CachedShortcut = service.Cached
	// Service request types for the engine's job methods.
	ServiceBuildRequest     = service.BuildRequest
	ServiceMSTRequest       = service.MSTRequest
	ServiceMinCutRequest    = service.MinCutRequest
	ServiceAggregateRequest = service.AggregateRequest
)

// Serving-layer entry points re-exported from internal/service.
var (
	NewServiceEngine     = service.New
	FingerprintGraph     = service.FingerprintGraph
	FingerprintPartition = service.FingerprintPartition
	ShortcutKey          = service.ShortcutKey
	ParseFingerprint     = service.ParseFingerprint
)

// Serving-layer sentinel errors.
var (
	ErrServiceClosed   = service.ErrClosed
	ErrUnknownGraph    = service.ErrUnknownGraph
	ErrUnknownShortcut = service.ErrUnknownShortcut
)

// Durable persistence (see internal/store and DESIGN.md §6): a
// content-addressed, append-only snapshot store for graphs, partitions,
// and built shortcuts. Plug a DurableStore into ServiceConfig.Store and
// the engine persists builds, serves cache misses store-first, and
// warm-starts its graph catalog across restarts.
type (
	// ServiceStore is the persistence interface the engine accepts.
	ServiceStore = service.Store
	// DurableStore is the on-disk segment-log implementation.
	DurableStore = store.Store
	// StoreOptions tunes segment size and fsync behavior.
	StoreOptions = store.Options
)

// OpenStore opens (creating if necessary) a durable store directory.
var OpenStore = store.Open
