package store

import (
	"bytes"
	"context"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
)

// putRaw writes one record frame straight through the payload store, past
// putFrame's head check and the index, as a build of another payload
// version would have written it: the index learns of it at the next Open.
func putRaw(t *testing.T, s *Store, kind byte, key service.Fingerprint, payload []byte) {
	t.Helper()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if _, err := s.ps.put(kind, key, append(make([]byte, frameHdrSize), payload...)); err != nil {
		t.Fatal(err)
	}
}

// withVersion returns a copy of payload with its version byte set to v.
func withVersion(payload []byte, v byte) []byte {
	b := slices.Clone(payload)
	b[0] = v
	return b
}

// serveOnce runs req through a fresh engine over st, which must answer it
// from want, and returns the engine's counters once its persists drained.
func serveOnce(t *testing.T, st *Store, req service.BuildRequest, want service.BuildSource) service.Stats {
	t.Helper()
	e := service.New(service.Config{Store: st})
	defer e.Close() // drains the detached persist
	if _, err := e.WarmStart(); err != nil {
		t.Fatal(err)
	}
	c, _, err := e.Build(context.Background(), req)
	if err != nil || c.Source != want {
		t.Fatalf("Build: err=%v source=%v, want %v", err, c.Source, want)
	}
	return e.Stats()
}

// TestStaleRecordsRebuilt: a shortcut record of an older or a newer
// payload version, or a current one over a partition record of an older
// version, is left out of the index at Open (in the last case with that
// partition record) and counted in StaleSkipped, not CorruptSkipped. The
// key reads as a clean miss, the engine builds it once with no store error and
// rewrites the records byte for byte as a fresh PutShortcut writes them,
// and the next engine hits the store. GC then reclaims exactly the skipped
// frames, and Verify is clean. A peer record of the other version is
// refused, and its import writes nothing.
func TestStaleRecordsRebuilt(t *testing.T) {
	for _, c := range []struct {
		name                string
		shortcut, partition byte // the payload versions written
	}{
		{"shortcut_older", shortcutPayloadVersion - 1, partitionPayloadVersion},
		{"shortcut_newer", shortcutPayloadVersion + 1, partitionPayloadVersion},
		{"partition_older", shortcutPayloadVersion, partitionPayloadVersion - 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, p, res := buildFixture(t, "grid:12x12", "blobs:8", 3)
			fp, pfp := service.FingerprintGraph(g), service.FingerprintPartition(p)
			key := service.ShortcutKey(fp, p, shortcut.Options{})
			spay, _, err := encodeShortcut(fp, shortcut.Options{}, res, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			ppay := encodePartition(p)
			dir := t.TempDir()
			w := mustOpen(t, dir)
			if err := w.PutGraph(fp, g); err != nil {
				t.Fatal(err)
			}
			putRaw(t, w, kindPartition, pfp, withVersion(ppay, c.partition))
			putRaw(t, w, kindShortcut, key, withVersion(spay, c.shortcut))
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			// The skipped frames: the stale record and, over a stale
			// partition, the current shortcut that names it.
			stale, staleBytes := 1, int64(frameHdrSize+len(spay))
			if c.partition != partitionPayloadVersion {
				stale, staleBytes = 2, staleBytes+int64(frameHdrSize+len(ppay))
			}

			s := mustOpen(t, dir)
			defer s.Close()
			if st := s.OpenStats(); st.StaleSkipped != stale || st.CorruptSkipped != 0 || st.Shortcuts != 0 {
				t.Fatalf("Open: %d stale and %d corrupt records skipped, %d shortcuts live; want %d, 0, 0",
					st.StaleSkipped, st.CorruptSkipped, st.Shortcuts, stale)
			}
			for _, parts := range []*partition.Partition{p, nil} {
				if r, _, ok, err := s.GetShortcut(key, g, parts); r != nil || ok || err != nil {
					t.Fatalf("GetShortcut(key-only=%v): ok=%v err=%v, want a clean miss", parts == nil, ok, err)
				}
			}

			req := service.BuildRequest{Graph: fp, Key: key, Spec: "blobs:8", Seed: 3}
			if st := serveOnce(t, s, req, service.SourceBuilt); st.StoreErrors != 0 || st.Builds != 1 {
				t.Errorf("stale record: %d store errors and %d builds, want 0 and 1", st.StoreErrors, st.Builds)
			}
			if st := serveOnce(t, s, req, service.SourceStore); st.StoreErrors != 0 || st.Builds != 0 || st.StoreHits != 1 {
				t.Errorf("after the rebuild: %d store errors, %d builds, %d store hits; want 0, 0, 1",
					st.StoreErrors, st.Builds, st.StoreHits)
			}

			got, ok, err := s.ShortcutRecord(key)
			if err != nil || !ok {
				t.Fatalf("ShortcutRecord: ok=%v err=%v", ok, err)
			}
			_, bt, _, err := s.GetShortcut(key, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			fresh := mustOpen(t, t.TempDir())
			defer fresh.Close()
			if err := fresh.PutGraph(fp, g); err != nil {
				t.Fatal(err)
			}
			if err := fresh.PutShortcut(key, fp, p, shortcut.Options{}, res, bt); err != nil {
				t.Fatal(err)
			}
			want, _, err := fresh.ShortcutRecord(key)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.ShortcutPayload, want.ShortcutPayload) || !bytes.Equal(got.PartitionPayload, want.PartitionPayload) {
				t.Error("the rebuilt records differ from a fresh PutShortcut's")
			}

			peer := want
			peer.ShortcutPayload = withVersion(want.ShortcutPayload, c.shortcut)
			peer.PartitionPayload = withVersion(want.PartitionPayload, c.partition)
			if _, _, _, _, err := VerifyPeerRecord(peer); err == nil {
				t.Error("VerifyPeerRecord accepted a record of another version")
			}
			empty := mustOpen(t, t.TempDir())
			defer empty.Close()
			if _, wrote, err := empty.ImportShortcut(peer); err == nil || wrote || empty.OpenStats().Partitions != 0 {
				t.Errorf("ImportShortcut of a record of another version: wrote=%v err=%v", wrote, err)
			}

			gc, err := s.GC()
			if err != nil {
				t.Fatal(err)
			}
			if gc.LiveRecords != 3 || gc.ReclaimedBytes != staleBytes {
				t.Errorf("GC kept %d records and reclaimed %d bytes, want 3 and the %d skipped bytes",
					gc.LiveRecords, gc.ReclaimedBytes, staleBytes)
			}
			if problems := s.Verify(); len(problems) != 0 {
				t.Errorf("verify after the rebuild: %v", problems)
			}
			if st := s.OpenStats(); st.StaleSkipped != 0 || st.Shortcuts != 1 {
				t.Errorf("after GC: %d stale records, %d shortcuts; want 0 and 1", st.StaleSkipped, st.Shortcuts)
			}
		})
	}
}

// TestLostPartitionHeals: a shortcut whose partition frame fails its
// checksum at Open is left out of the index with it, so the key reads as a
// clean miss, not a store error: the first engine builds once and rewrites
// both records, the next one hits the store, and Verify is clean. A
// partition record that leaves the index while the store is open is
// written again by the next put or import of the shortcut, which a read
// given the request's partition would still accept.
func TestLostPartitionHeals(t *testing.T) {
	g, p, res := buildFixture(t, "grid:12x12", "blobs:8", 4)
	fp, pfp := service.FingerprintGraph(g), service.FingerprintPartition(p)
	key := service.ShortcutKey(fp, p, shortcut.Options{})
	dir := t.TempDir()
	w := mustOpen(t, dir)
	if err := w.PutGraph(fp, g); err != nil {
		t.Fatal(err)
	}
	if err := w.PutShortcut(key, fp, p, shortcut.Options{}, res, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	r := recordAt(t, w, "partition", pfp)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, segName(r.Segment)), r.Offset+frameHdrSize+1)

	s := mustOpen(t, dir)
	defer s.Close()
	if st := s.OpenStats(); st.CorruptSkipped != 1 || st.StaleSkipped != 1 || st.Shortcuts != 0 {
		t.Fatalf("Open: %d corrupt and %d stale records skipped, %d shortcuts live; want 1, 1, 0",
			st.CorruptSkipped, st.StaleSkipped, st.Shortcuts)
	}
	req := service.BuildRequest{Graph: fp, Key: key, Spec: "blobs:8", Seed: 4}
	if st := serveOnce(t, s, req, service.SourceBuilt); st.StoreErrors != 0 || st.Builds != 1 {
		t.Errorf("lost partition: %d store errors and %d builds, want 0 and 1", st.StoreErrors, st.Builds)
	}
	if st := serveOnce(t, s, req, service.SourceStore); st.Builds != 0 || st.StoreHits != 1 {
		t.Errorf("after the rebuild: %d builds and %d store hits, want 0 and 1", st.Builds, st.StoreHits)
	}
	if problems := s.Verify(); len(problems) != 0 {
		t.Errorf("verify after the rebuild: %v", problems)
	}

	rec, ok, err := s.ShortcutRecord(key)
	if err != nil || !ok {
		t.Fatalf("ShortcutRecord: ok=%v err=%v", ok, err)
	}
	for _, heal := range []struct {
		name string
		run  func() error
	}{
		{"PutShortcut", func() error { return s.PutShortcut(key, fp, p, shortcut.Options{}, res, time.Millisecond) }},
		{"ImportShortcut", func() error { _, _, err := s.ImportShortcut(rec); return err }},
	} {
		s.mu.Lock()
		s.removeLocked(indexKey{kind: kindPartition, key: pfp})
		s.mu.Unlock()
		if err := heal.run(); err != nil {
			t.Fatalf("%s: %v", heal.name, err)
		}
		if _, _, ok, err := s.GetShortcut(key, g, nil); err != nil || !ok {
			t.Errorf("key-only read after %s over a lost partition record: ok=%v err=%v", heal.name, ok, err)
		}
	}
	if problems := s.Verify(); len(problems) != 0 {
		t.Errorf("verify after the in-session heals: %v", problems)
	}
}

// TestEngineReplacesRefusedRecord: a current record filed under a key its
// stored options do not re-derive fails the store read, so the engine
// counts one store error and rebuilds, and the persist replaces the
// record: the next miss on the key is a store hit.
func TestEngineReplacesRefusedRecord(t *testing.T) {
	st := mustOpen(t, t.TempDir())
	defer st.Close()
	g, p, res := buildFixture(t, "grid:12x12", "blobs:8", 3)
	fp := service.FingerprintGraph(g)
	if err := st.PutGraph(fp, g); err != nil {
		t.Fatal(err)
	}
	key := service.ShortcutKey(fp, p, shortcut.Options{})
	other := shortcut.Options{MaxIterations: 7}
	if service.ShortcutKey(fp, p, other) == key {
		t.Fatal("fixture options must re-derive another key")
	}
	forged, _, err := encodeShortcut(fp, other, res, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.writeMu.Lock()
	err = st.putRecord(kindPartition, service.FingerprintPartition(p), encodePartition(p))
	if err == nil {
		err = st.putRecord(kindShortcut, key, forged)
	}
	st.writeMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	req := service.BuildRequest{Graph: fp, Key: key, Spec: "blobs:8", Seed: 3}
	if s := serveOnce(t, st, req, service.SourceBuilt); s.StoreErrors != 1 || s.Builds != 1 {
		t.Errorf("refused record: %d store errors and %d builds, want 1 and 1", s.StoreErrors, s.Builds)
	}
	if s := serveOnce(t, st, req, service.SourceStore); s.StoreErrors != 0 || s.Builds != 0 || s.StoreHits != 1 {
		t.Errorf("after the rebuild: %d store errors, %d builds, %d store hits; want 0, 0, 1",
			s.StoreErrors, s.Builds, s.StoreHits)
	}
	if payload, _, _ := st.ShortcutPayload(key); claimedOptions(payload) != (shortcut.Options{}) {
		t.Errorf("the replacing record stores options %+v, want the key's", claimedOptions(payload))
	}
}
