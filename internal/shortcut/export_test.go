package shortcut

// Test oracles over a Shortcut. They live in a test file, and are exported
// so that the external measure_test.go can call them too.

// EdgeLoads returns, for every edge with nonzero load, the number of covered
// parts whose H_i contains it.
func EdgeLoads(s *Shortcut) map[int]int {
	load := make(map[int]int)
	for i, h := range s.H {
		if !s.Covered[i] {
			continue
		}
		for _, id := range h {
			load[id]++
		}
	}
	return load
}

// PartDilation returns the diameter of G[P_i]+H_i for a single part (exact,
// regardless of size), or -1 if the augmented subgraph is disconnected.
func PartDilation(s *Shortcut, i int) int {
	m := measurers.Get().(*measurer)
	m.reserve(s.G)
	m.buildAugmented(s, i)
	d := m.csr.Diameter(&m.diam)
	measurers.Put(m)
	return d
}
