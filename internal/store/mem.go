package store

import (
	"fmt"
	"sync"

	"locshort/internal/service"
)

// Mem is the ephemeral in-memory backend: the shared record index over a
// plain map of payloads, with nothing on disk. It serves two roles —
// `-store=mem` for a locshortd that wants store semantics (dedup,
// tombstones, peer inventory) without a data directory, and a fast
// substrate for tests. It stores the same canonical record payloads as
// the segment store and decodes them on read, so content verification is
// byte-for-byte identical; only durability differs (everything is lost at
// process exit).
//
// Mem reclaims deleted payloads eagerly and therefore does not implement
// Compactor.
type Mem struct {
	kvCore
}

var _ Backend = (*Mem)(nil)

// OpenMem returns a fresh, empty in-memory backend.
func OpenMem() *Mem {
	m := &Mem{}
	m.init(KindMem, &memPayloads{mu: &m.mu, m: make(map[indexKey][]byte)})
	return m
}

// Dir returns "" — the in-memory backend has no on-disk presence.
func (m *Mem) Dir() string { return "" }

// memPayloads is Mem's payloadStore: a map of defensive copies, guarded by
// the owning kvCore's mu, so a payload leaves in the same critical section
// as its index entry (and enters just before it). read returns the stored
// slice directly; callers treat record payloads as read-only.
type memPayloads struct {
	mu    *sync.RWMutex // the owning kvCore's mu
	m     map[indexKey][]byte
	bytes int64
}

func (p *memPayloads) put(kind byte, key service.Fingerprint, frame []byte) (kvMeta, error) {
	if kind == kindTombstone {
		return kvMeta{}, nil // nothing to make durable; the index drop is the delete
	}
	cp := append([]byte(nil), frame[frameHdrSize:]...)
	ik := indexKey{kind: kind, key: key}
	p.mu.Lock()
	p.bytes += int64(len(cp)) - int64(len(p.m[ik]))
	p.m[ik] = cp
	p.mu.Unlock()
	return kvMeta{size: int64(len(cp))}, nil
}

func (p *memPayloads) read(ik indexKey, _ kvMeta) ([]byte, error) {
	payload, ok := p.m[ik]
	if !ok {
		return nil, fmt.Errorf("store: mem record %s/%c has no payload", ik.key, ik.kind)
	}
	return payload, nil
}

func (p *memPayloads) check(kvMeta) error { return nil }

func (p *memPayloads) drop(ik indexKey) {
	p.bytes -= int64(len(p.m[ik]))
	delete(p.m, ik)
}

func (p *memPayloads) stats(st *OpenStats) { st.Bytes = p.bytes }

func (p *memPayloads) close() error { return nil }
