package graph

// DiameterScratch holds the reusable arrays of the CSR diameter routines:
// BFS distances and queue, the per-node eccentricity bounds of the
// bounding search, and its candidate list. The zero value is ready to use;
// the arrays grow on demand and are never shrunk, so a scratch reused
// across graphs stops allocating once it has seen the largest one.
type DiameterScratch struct {
	dist, queue []int32
	lo, up      []int32
	cand        []int32
}

// Reserve grows the scratch to serve graphs of up to n nodes without
// further allocation.
func (s *DiameterScratch) Reserve(n int) {
	for _, a := range []*[]int32{&s.dist, &s.queue, &s.lo, &s.up, &s.cand} {
		if cap(*a) < n {
			*a = make([]int32, 0, n)
		}
	}
}

// NumNodes returns the number of nodes the CSR describes.
func (c *CSR) NumNodes() int { return len(c.Offsets) - 1 }

// bfs runs a breadth-first search from src, leaving hop distances in
// s.dist (-1 for unreachable nodes) and the visit order in s.queue, and
// returns the number of nodes reached. s.dist and s.queue must already
// hold NumNodes entries.
//
//locshort:hotpath
func (c *CSR) bfs(s *DiameterScratch, src int32) int {
	dist, queue := s.dist, s.queue
	for v := range dist {
		dist[v] = -1
	}
	dist[src] = 0
	queue[0] = src
	tail := 1
	for head := 0; head < tail; head++ {
		v := queue[head]
		dv := dist[v] + 1
		for i, end := c.Offsets[v], c.Offsets[v+1]; i < end; i++ {
			if to := c.To[i]; dist[to] < 0 {
				dist[to] = dv
				queue[tail] = to
				tail++
			}
		}
	}
	return tail
}

// DoubleSweep returns the eccentricity of the second source of a double
// BFS sweep — a BFS from node 0, then one from the smallest-index node
// farthest from it — or -1 if the graph is disconnected. The result e
// bounds the diameter as e <= diam <= 2e. A graph without nodes has e = 0.
func (c *CSR) DoubleSweep(s *DiameterScratch) int {
	n := c.NumNodes()
	if n <= 0 {
		return 0
	}
	s.dist = ResizeInt32s(s.dist, n)
	s.queue = ResizeInt32s(s.queue, n)
	if c.bfs(s, 0) < n {
		return -1
	}
	far := int32(0)
	for v, d := range s.dist {
		if d > s.dist[far] {
			far = int32(v)
		}
	}
	c.bfs(s, far)
	return int(s.dist[s.queue[n-1]])
}

// Diameter returns the exact hop diameter of the graph, or -1 if it is
// disconnected. A graph without nodes has diameter 0.
//
// It runs the BoundingDiameters search of Takes and Kosters ("Determining
// the diameter of small world networks", CIKM 2011) instead of a BFS from
// every node. Each node v keeps bounds lo[v] <= ecc(v) <= up[v]; a BFS
// from a source x with eccentricity e tightens them to
// lo[v] >= max(d(x,v), e-d(x,v)) and up[v] <= e+d(x,v) by the triangle
// inequality. The diameter is max ecc(v), so it lies between max lo and
// max up, and also below 2e for every BFS source. The search stops when
// those two bounds meet, so the result is exact, not an estimate. Sources
// alternate between the candidate with the largest upper bound and the
// one with the smallest lower bound (ties: higher degree, then smaller
// index). A node leaves the candidate list once its eccentricity is known
// or once it can move neither bound (up <= Δlow and 2·lo >= Δupp). In the
// worst case every node is a source, the cost of the all-pairs loop; on
// the augmented part subgraphs Measure sees it needs a few percent of it.
func (c *CSR) Diameter(s *DiameterScratch) int {
	n := c.NumNodes()
	if n <= 1 {
		return 0
	}
	s.dist = ResizeInt32s(s.dist, n)
	s.queue = ResizeInt32s(s.queue, n)
	lo := ResizeInt32s(s.lo, n)
	up := ResizeInt32s(s.up, n)
	cand := ResizeInt32s(s.cand, n)
	s.lo, s.up, s.cand = lo, up, cand
	for v := range lo {
		lo[v] = 0
		up[v] = int32(n)
		cand[v] = int32(v)
	}
	dupp := int32(n)
	src := c.pickSource(cand, up, true)
	for round := 0; ; round++ {
		if c.bfs(s, src) < n {
			return -1
		}
		ecc := s.dist[s.queue[n-1]] // the last node BFS visits is farthest
		dlow, maxUp := s.tighten(ecc)
		dupp = min(dupp, 2*ecc, maxUp)
		if dlow == dupp {
			return int(dlow)
		}
		// Once the bounds differ some node's eccentricity is still
		// unknown and can move one of them, so the pruned list is
		// nonempty: a list of only pruned nodes would give max up <= Δlow.
		cand = prune(cand, lo, up, dlow, dupp)
		if round%2 == 0 {
			src = c.pickSource(cand, lo, false)
		} else {
			src = c.pickSource(cand, up, true)
		}
	}
}

// tighten folds the BFS in s.dist, whose source has eccentricity ecc,
// into the per-node bounds and returns max lo and max up over all nodes.
//
//locshort:hotpath
func (s *DiameterScratch) tighten(ecc int32) (maxLo, maxUp int32) {
	lo, up := s.lo, s.up
	for v, d := range s.dist {
		if l := max(d, ecc-d); l > lo[v] {
			lo[v] = l
		}
		if u := ecc + d; u < up[v] {
			up[v] = u
		}
		maxLo = max(maxLo, lo[v])
		maxUp = max(maxUp, up[v])
	}
	return maxLo, maxUp
}

// prune drops the candidates whose eccentricity is known or that can move
// neither diameter bound, compacting cand in place.
//
//locshort:hotpath
func prune(cand, lo, up []int32, dlow, dupp int32) []int32 {
	keep := cand[:0]
	for _, v := range cand {
		if lo[v] == up[v] || (up[v] <= dlow && 2*lo[v] >= dupp) {
			continue
		}
		keep = append(keep, v)
	}
	return keep
}

// pickSource returns the candidate with the largest (high) or smallest
// key, preferring higher degree and then smaller index on ties.
//
//locshort:hotpath
func (c *CSR) pickSource(cand, key []int32, high bool) int32 {
	best := cand[0]
	for _, v := range cand[1:] {
		kv, kb := key[v], key[best]
		if !high {
			kv, kb = kb, kv
		}
		if kv > kb || (kv == kb && c.Degree(int(v)) > c.Degree(int(best))) {
			best = v
		}
	}
	return best
}
