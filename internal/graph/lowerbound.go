package graph

import "fmt"

// LowerBoundGraph is the Lemma 3.2 / Figure 3.2 topology of the paper: the
// instance witnessing that shortcut quality Omega(delta*D) is necessary.
//
// With delta = DeltaPrime-2, K = floor(DiamPrime/(2*delta)) and D = K*delta,
// it consists of one "top" path of length (delta-1)*K and (delta-1)*D+1
// "row" paths of length (delta-1)*D each. Every D-th column hosts a vertical
// path through all rows, and on each such column every D-th row node
// connects to a dedicated top-path node.
//
// The rows are the parts of the hard part-wise aggregation instance: the
// only way to shorten a row is through the short top path, but the top path
// has too few edges to serve all rows with low congestion, forcing every
// shortcut to quality at least (DeltaPrime-3)*DiamPrime/6.
//
// Note on the diameter: the paper states the diameter is at most 1.5D+1, but
// its argument bounds the eccentricity of the middle top-path node, so the
// construction only guarantees diameter <= 3D+2 = Theta(DiamPrime); the
// measured diameter is about 2.5D. This does not affect the lower bound.
type LowerBoundGraph struct {
	G *Graph

	// Requested parameters (delta' and D' in the paper).
	DeltaPrime int
	DiamPrime  int

	// Derived parameters: Delta = DeltaPrime-2, K = floor(DiamPrime/(2*Delta)),
	// D = K*Delta.
	Delta int
	K     int
	D     int

	// TopPath holds the node IDs p_1..p_{(Delta-1)K+1} in path order.
	TopPath []int
	// Rows holds the node IDs of each row path in path order; the rows are
	// the parts of the lower-bound instance.
	Rows [][]int

	// QualityLowerBound is (DeltaPrime-3)*DiamPrime/6: by Lemma 3.2, every
	// (partial) shortcut for the rows has congestion or dilation at least
	// this value.
	QualityLowerBound float64
}

// LowerBound constructs the Lemma 3.2 topology for the given delta' and D'.
// It requires deltaPrime >= 5 and diamPrime >= 4*(deltaPrime-2), which
// guarantees K >= 2 as the proof assumes.
func LowerBound(deltaPrime, diamPrime int) (*LowerBoundGraph, error) {
	if deltaPrime < 5 {
		return nil, fmt.Errorf("graph: lower bound needs deltaPrime >= 5, got %d", deltaPrime)
	}
	// Every row has about deltaPrime*diamPrime/2 nodes and there are as
	// many rows, so either parameter over MaxNodes is far over the limit;
	// bounding them first keeps the size arithmetic below from wrapping.
	if deltaPrime > MaxNodes || diamPrime > MaxNodes {
		return nil, fmt.Errorf("graph: lower bound LB(%d,%d): %w", deltaPrime, diamPrime, ErrTooLarge)
	}
	delta := deltaPrime - 2
	if diamPrime < 4*delta {
		return nil, fmt.Errorf("graph: lower bound needs diamPrime >= 4*(deltaPrime-2) = %d, got %d",
			4*delta, diamPrime)
	}
	k := diamPrime / (2 * delta)
	bigD := k * delta

	topLen := (delta-1)*k + 1    // number of p-nodes
	rowLen := (delta-1)*bigD + 1 // nodes per row == number of rows
	numRows := rowLen
	if rowLen > MaxNodes/rowLen {
		return nil, fmt.Errorf("graph: lower bound LB(%d,%d): %w: %d rows of %d nodes",
			deltaPrime, diamPrime, ErrTooLarge, numRows, rowLen)
	}
	// Edges: the top path, the rows, delta column paths, delta^2 connectors.
	if err := CheckSize(topLen+numRows*rowLen, topLen-1+numRows*(rowLen-1)+delta*(numRows-1)+delta*delta); err != nil {
		return nil, fmt.Errorf("graph: lower bound LB(%d,%d): %w", deltaPrime, diamPrime, err)
	}

	lb := &LowerBoundGraph{
		DeltaPrime:        deltaPrime,
		DiamPrime:         diamPrime,
		Delta:             delta,
		K:                 k,
		D:                 bigD,
		QualityLowerBound: float64(deltaPrime-3) * float64(diamPrime) / 6,
	}
	g := New(topLen + numRows*rowLen)
	lb.G = g

	top := func(i int) int { return i - 1 }                              // p_i, i in [1, topLen]
	row := func(i, j int) int { return topLen + (i-1)*rowLen + (j - 1) } // v_{i,j}, 1-based

	lb.TopPath = make([]int, topLen)
	for i := 1; i <= topLen; i++ {
		lb.TopPath[i-1] = top(i)
		if i < topLen {
			g.AddEdge(top(i), top(i+1))
		}
	}
	lb.Rows = make([][]int, numRows)
	for i := 1; i <= numRows; i++ {
		r := make([]int, rowLen)
		for j := 1; j <= rowLen; j++ {
			r[j-1] = row(i, j)
			if j < rowLen {
				g.AddEdge(row(i, j), row(i, j+1))
			}
		}
		lb.Rows[i-1] = r
	}
	// Vertical column paths at every D-th column, and connectors from every
	// D-th row on those columns to the matching top-path node.
	for j := 1; j <= delta; j++ {
		col := (j-1)*bigD + 1
		for i := 1; i < numRows; i++ {
			g.AddEdge(row(i, col), row(i+1, col))
		}
		p := top((j-1)*k + 1)
		for jp := 1; jp <= delta; jp++ {
			g.AddEdge(row((jp-1)*bigD+1, col), p)
		}
	}
	return lb, nil
}

// MinorDensityUpperBound returns the Lemma 3.2 upper bound on the minor
// density of the topology: every minor has density strictly below
// DeltaPrime.
func (lb *LowerBoundGraph) MinorDensityUpperBound() float64 {
	return float64(lb.DeltaPrime)
}
