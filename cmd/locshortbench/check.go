package main

import (
	"fmt"

	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
)

// checkSamples verifies the responses kept during a window, against the
// deployment that served them (still running):
//
//   - the answered key is the client's own service.ShortcutKey;
//   - the shortcut's canonical record payload (the binary body, or for a
//     JSON answer a binary re-fetch of the same key) decodes with
//     store.DecodeShortcutPayload;
//   - shortcut.Measure of the decoded shortcut meets the E2 bounds,
//     congestion ≤ c·iterations and dilation ≤ (b+1)(2·depth+1);
//   - a JSON answer reported exactly that congestion and dilation.
func checkSamples(p *plan, dep *deployment, samples []sample) []string {
	var bad []string
	fail := func(s sample, format string, args ...any) {
		bad = append(bad, fmt.Sprintf("%s graph %d seed %d: %s",
			encName(s.req.binary), s.req.graph, s.req.seed, fmt.Sprintf(format, args...)))
	}
	measured := make(map[service.Fingerprint]shortcut.Quality)
	for _, s := range samples {
		gi := s.req.graph
		key, err := p.key(gi, s.req.seed)
		if err != nil {
			fail(s, "client-side partition: %v", err)
			continue
		}
		if s.key != key.String() {
			fail(s, "answered key %s, client computes %s", s.key, key)
			continue
		}
		if s.graph != p.fps[gi].String() {
			fail(s, "answered graph %s, want %s", s.graph, p.fps[gi])
			continue
		}
		q, ok := measured[key]
		if !ok {
			payload := s.payload
			if payload == nil {
				r := s.req
				r.binary = true
				resp, err := dep.postShortcut(p, r)
				if err != nil {
					fail(s, "binary re-fetch: %v", err)
					continue
				}
				if resp.key != key.String() {
					fail(s, "binary re-fetch answered key %s", resp.key)
					continue
				}
				payload = resp.body
			}
			parts, _ := p.partition(gi, s.req.seed)
			res, _, err := store.DecodeShortcutPayload(payload, key, p.graphs[gi], parts)
			if err != nil {
				fail(s, "payload does not decode: %v", err)
				continue
			}
			q = shortcut.Measure(res.Shortcut)
			if bound := res.CongestionThreshold * res.Iterations; q.Congestion > bound {
				fail(s, "congestion %d exceeds c·iterations = %d", q.Congestion, bound)
			}
			if bound := (res.BlockBudget + 1) * (2*res.TreeDepth + 1); q.Dilation > bound {
				fail(s, "dilation %d exceeds (b+1)(2D+1) = %d", q.Dilation, bound)
			}
			measured[key] = q
		}
		if s.payload == nil && (s.congestion != q.Congestion || s.dilation != q.Dilation) {
			fail(s, "reported congestion/dilation %d/%d, measured %d/%d",
				s.congestion, s.dilation, q.Congestion, q.Dilation)
		}
	}
	return bad
}

func encName(binary bool) string {
	if binary {
		return encBinary
	}
	return encJSON
}
