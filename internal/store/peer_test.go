package store

import (
	"path/filepath"
	"testing"
	"time"

	"locshort/internal/service"
	"locshort/internal/shortcut"
)

// peerFixture persists one (graph, partition, shortcut) triple into a fresh
// store and returns the store plus the record identities.
func peerFixture(t *testing.T, spec, partSpec string, seed int64) (
	*Store, service.Fingerprint, service.Fingerprint) {
	t.Helper()
	src := mustOpen(t, filepath.Join(t.TempDir(), "src"))
	t.Cleanup(func() { src.Close() })
	g, p, res := buildFixture(t, spec, partSpec, seed)
	gfp := service.FingerprintGraph(g)
	key := service.ShortcutKey(gfp, p, shortcut.Options{})
	if err := src.PutGraph(gfp, g); err != nil {
		t.Fatal(err)
	}
	if err := src.PutShortcut(key, gfp, p, shortcut.Options{}, res, 42*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return src, gfp, key
}

// TestPeerRecordRoundTrip: a record exported from one store imports into
// another, verifies end to end, and serves the identical shortcut.
func TestPeerRecordRoundTrip(t *testing.T) {
	src, gfp, key := peerFixture(t, "grid:8x8", "blobs:4", 1)

	rec, ok, err := src.ShortcutRecord(key)
	if err != nil || !ok {
		t.Fatalf("ShortcutRecord: ok=%v err=%v", ok, err)
	}
	if rec.Key != key || rec.GraphFP != gfp {
		t.Fatalf("record identities: %+v", rec)
	}

	g2, parts2, res2, bt, err := VerifyPeerRecord(rec)
	if err != nil {
		t.Fatalf("VerifyPeerRecord: %v", err)
	}
	if bt != 42*time.Millisecond {
		t.Fatalf("build time: %v", bt)
	}
	if service.FingerprintGraph(g2) != gfp {
		t.Fatal("decoded graph does not re-hash to the claimed fingerprint")
	}
	if got := service.ShortcutKey(gfp, parts2, shortcut.Options{}); got != key {
		t.Fatalf("decoded record re-derives key %s, want %s", got, key)
	}
	if res2 == nil || res2.Shortcut == nil {
		t.Fatal("decoded shortcut is empty")
	}

	dst := mustOpen(t, filepath.Join(t.TempDir(), "dst"))
	defer dst.Close()
	gImp, imported, err := dst.ImportShortcut(rec)
	if err != nil || !imported {
		t.Fatalf("ImportShortcut: imported=%v err=%v", imported, err)
	}
	if gImp == nil {
		t.Fatal("import returned no graph for engine registration")
	}
	if !dst.HasShortcut(key) || !dst.GraphKnown(gfp) {
		t.Fatal("import left records missing")
	}
	// The imported record round-trips through the normal read path.
	got, gotBT, ok, err := dst.GetShortcut(key, gImp, parts2)
	if err != nil || !ok {
		t.Fatalf("GetShortcut after import: ok=%v err=%v", ok, err)
	}
	if gotBT != 42*time.Millisecond || got.Delta != res2.Delta {
		t.Fatalf("imported record differs: bt=%v delta=%d", gotBT, got.Delta)
	}
	// Re-import is a verified no-op.
	if _, again, err := dst.ImportShortcut(rec); err != nil || again {
		t.Fatalf("re-import: imported=%v err=%v", again, err)
	}
}

// TestPeerRecordTamperRejected: flipping any payload byte (or lying about
// a fingerprint) fails verification and imports nothing.
func TestPeerRecordTamperRejected(t *testing.T) {
	src, _, key := peerFixture(t, "grid:8x8", "blobs:4", 2)
	pristine, ok, err := src.ShortcutRecord(key)
	if err != nil || !ok {
		t.Fatal("fixture record missing")
	}

	mutate := func(name string, f func(*PeerRecord)) {
		rec := pristine
		// Deep-copy the payload being flipped so cases stay independent.
		rec.GraphPayload = append([]byte(nil), pristine.GraphPayload...)
		rec.PartitionPayload = append([]byte(nil), pristine.PartitionPayload...)
		rec.ShortcutPayload = append([]byte(nil), pristine.ShortcutPayload...)
		f(&rec)
		if _, _, _, _, err := VerifyPeerRecord(rec); err == nil {
			t.Errorf("%s: verification accepted a tampered record", name)
		}
		dst := mustOpen(t, filepath.Join(t.TempDir(), name))
		defer dst.Close()
		if _, imported, err := dst.ImportShortcut(rec); err == nil || imported {
			t.Errorf("%s: import accepted a tampered record", name)
		}
		if dst.HasShortcut(rec.Key) || dst.GraphKnown(rec.GraphFP) {
			t.Errorf("%s: rejected import left records behind", name)
		}
	}

	mutate("graph-payload-bit", func(r *PeerRecord) {
		r.GraphPayload[len(r.GraphPayload)/2] ^= 0x01
	})
	mutate("partition-payload-bit", func(r *PeerRecord) {
		r.PartitionPayload[len(r.PartitionPayload)/2] ^= 0x01
	})
	mutate("shortcut-payload-bit", func(r *PeerRecord) {
		r.ShortcutPayload[len(r.ShortcutPayload)-1] ^= 0x01
	})
	mutate("lying-key", func(r *PeerRecord) {
		r.Key ^= 1
	})
	mutate("lying-graph-fp", func(r *PeerRecord) {
		r.GraphFP ^= 1
	})
	mutate("lying-partition-fp", func(r *PeerRecord) {
		r.PartitionFP ^= 1
	})
}

// TestShortcutInventoryRanges: the (lo, hi] wrapping arc convention.
func TestShortcutInventoryRanges(t *testing.T) {
	st := mustOpen(t, filepath.Join(t.TempDir(), "inv"))
	defer st.Close()
	// Three distinct records: vary the partition seed.
	keys := make([]service.Fingerprint, 0, 3)
	for _, partSpec := range []string{"blobs:2", "blobs:4", "blobs:8"} {
		g, p, res := buildFixture(t, "grid:8x8", partSpec, 1)
		gfp := service.FingerprintGraph(g)
		key := service.ShortcutKey(gfp, p, shortcut.Options{})
		if err := st.PutGraph(gfp, g); err != nil {
			t.Fatal(err)
		}
		if err := st.PutShortcut(key, gfp, p, shortcut.Options{}, res, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}

	all := st.ShortcutInventory(0, 0) // lo == hi: full circle
	if len(all) != len(keys) {
		t.Fatalf("full inventory has %d entries, want %d", len(all), len(keys))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Key >= all[i].Key {
			t.Fatal("inventory not sorted by key")
		}
	}

	// A half-open arc pinned just around one key contains exactly it.
	target := uint64(all[1].Key)
	got := st.ShortcutInventory(target-1, target)
	if len(got) != 1 || got[0].Key != all[1].Key {
		t.Fatalf("arc (k-1, k] = %v, want exactly key %s", got, all[1].Key)
	}
	// The complement arc (k, k-1] wraps and holds the other records.
	rest := st.ShortcutInventory(target, target-1)
	if len(rest) != len(keys)-1 {
		t.Fatalf("wrapped complement has %d entries, want %d", len(rest), len(keys)-1)
	}
	for _, e := range rest {
		if e.Key == all[1].Key {
			t.Fatal("complement arc contains the excluded key")
		}
	}

	// Graph fingerprints listing is sorted and complete.
	fps := st.GraphFingerprints()
	if len(fps) != 1 { // same grid graph for all three records
		t.Fatalf("graph fingerprints: %d, want 1", len(fps))
	}
}

// TestShortcutRecordMissingDependency: a live shortcut whose graph record
// was tombstoned is an integrity error, not a silent miss.
func TestShortcutRecordMissing(t *testing.T) {
	st := mustOpen(t, filepath.Join(t.TempDir(), "missing"))
	defer st.Close()
	if _, ok, err := st.ShortcutRecord(service.Fingerprint(12345)); ok || err != nil {
		t.Fatalf("absent record: ok=%v err=%v, want clean miss", ok, err)
	}
	if st.HasShortcut(service.Fingerprint(12345)) || st.GraphKnown(service.Fingerprint(12345)) {
		t.Fatal("empty store claims records")
	}
}

// TestShortcutRecordSnapshotUnderDelete races ShortcutRecord against a
// graph being deleted and re-put: every call must see one consistent
// snapshot — the full record or a clean miss — never a shortcut whose
// graph has vanished halfway through the read (which a peer handler would
// turn into a 500 instead of a 404).
func TestShortcutRecordSnapshotUnderDelete(t *testing.T) {
	t.Run("segment", func(t *testing.T) {
		b := mustOpen(t, t.TempDir())
		defer b.Close()
		g, p, res := buildFixture(t, "grid:5x5", "blobs:3", 4)
		gfp := service.FingerprintGraph(g)
		key := service.ShortcutKey(gfp, p, shortcut.Options{})
		put := func() {
			if err := b.PutGraph(gfp, g); err != nil {
				t.Error(err)
			}
			if err := b.PutShortcut(key, gfp, p, shortcut.Options{}, res, time.Millisecond); err != nil {
				t.Error(err)
			}
		}
		put()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 300; i++ {
				if err := b.DeleteGraph(gfp); err != nil {
					t.Error(err)
				}
				put()
			}
		}()
		hits, misses := 0, 0
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
			}
			rec, ok, err := b.ShortcutRecord(key)
			if err != nil {
				t.Fatalf("ShortcutRecord during churn: %v", err)
			}
			if !ok {
				misses++
				continue
			}
			hits++
			if _, _, _, _, err := VerifyPeerRecord(rec); err != nil {
				t.Fatalf("ShortcutRecord returned an unverifiable snapshot: %v", err)
			}
		}
		t.Logf("%d hits, %d misses", hits, misses)
	})
}
