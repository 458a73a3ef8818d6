// Package storetest is the executable contract for store.Backend: a
// reusable conformance suite every storage backend must pass. The segment
// store runs through it as the reference implementation; the in-memory and
// object-directory backends prove equivalence by passing the identical
// suite; a future tiered or replicated backend starts by passing it too.
//
// The suite covers the contract documented on store.Backend — round-trips
// for every record kind across the graph families, idempotent re-puts,
// tombstone deletes, no-resurrection, iteration/warm-start ordering,
// payload verification (tampered bytes are detected, never served),
// peer-surface semantics, -race concurrency schedules, GC under concurrent
// readers — and, through the errfs fault injector, crash consistency:
// failed fsyncs, torn writes, faults mid-GC, and a crash-at-every-Nth-op
// sweep with reopen, asserting acknowledged records survive and the store
// never serves a record that fails re-verification.
package storetest

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"locshort/internal/cli"
	"locshort/internal/graph"
	"locshort/internal/jobs"
	"locshort/internal/partition"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
	"locshort/internal/store/storetest/errfs"
)

// Factory describes one backend to Run the conformance suite against.
type Factory struct {
	// Name labels the backend in test output.
	Name string
	// New opens a fresh backend rooted at dir (fatal on error).
	New func(t testing.TB, dir string) store.Backend
	// Reopen reopens dir after a Close, preserving durable state. nil
	// declares the backend ephemeral: reopen-dependent cases instead
	// assert that a fresh instance starts empty.
	Reopen func(t testing.TB, dir string) store.Backend
	// NewFS opens a backend whose filesystem access is routed through
	// fsys, with syncing enabled, returning rather than failing the test
	// on error (a crash schedule may legitimately break Open). nil skips
	// the fault-injection cases. Requires Reopen.
	NewFS func(t testing.TB, dir string, fsys store.FS) (store.Backend, error)
	// Corrupt tampers with at least one stored record payload byte on
	// disk (called between Close and Reopen). nil skips the tamper case.
	Corrupt func(t testing.TB, dir string)
	// HasGC declares the backend implements store.Compactor.
	HasGC bool
}

// families is one spec per generator family, with a partition shape.
var families = []struct{ spec, parts string }{
	{"grid:6x7", "blobs:6"},
	{"torus:5x5", "blobs:4"},
	{"wheel:40", "blobs:5"},
	{"cycle:30", "blobs:3"},
	{"path:17", "blobs:3"},
	{"complete:8", "blobs:2"},
	{"ktree:60,3", "blobs:6"},
	{"random:50,120", "blobs:5"},
	{"lb:5,12", "blobs:4"},
}

// fixture is one persistable (graph, partition, shortcut) triple with its
// content keys.
type fixture struct {
	spec  string
	g     *graph.Graph
	parts *partition.Partition
	res   *shortcut.Result
	opts  shortcut.Options
	bt    time.Duration

	gfp, pfp, key service.Fingerprint
}

func makeFixture(t testing.TB, spec, partSpec string, seed int64) *fixture {
	t.Helper()
	g, _, err := cli.ParseGraph(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := cli.ParsePartition(g, partSpec, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shortcut.Build(g, parts, shortcut.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{
		spec:  spec,
		g:     g,
		parts: parts,
		res:   res,
		bt:    time.Duration(17+len(spec)) * time.Millisecond,
	}
	fx.gfp = service.FingerprintGraph(g)
	fx.pfp = service.FingerprintPartition(parts)
	fx.key = service.ShortcutKey(fx.gfp, parts, fx.opts)
	return fx
}

// put persists the fixture's graph and shortcut.
func (fx *fixture) put(t testing.TB, b store.Backend) {
	t.Helper()
	if err := b.PutGraph(fx.gfp, fx.g); err != nil {
		t.Fatalf("%s: PutGraph: %v", fx.spec, err)
	}
	if err := b.PutShortcut(fx.key, fx.gfp, fx.parts, fx.opts, fx.res, fx.bt); err != nil {
		t.Fatalf("%s: PutShortcut: %v", fx.spec, err)
	}
}

// canonicalPayload is the representation-independent identity of the
// fixture's shortcut: the canonical record payload.
func (fx *fixture) canonicalPayload() []byte {
	return store.EncodeShortcutRecordPayload(fx.gfp, fx.parts, fx.opts, fx.res, fx.bt)
}

// checkGet round-trips every record of the fixture through b.
func (fx *fixture) checkGet(t testing.TB, b store.Backend) {
	t.Helper()
	g2, ok, err := b.GetGraph(fx.gfp)
	if err != nil || !ok {
		t.Fatalf("%s: GetGraph: ok=%v err=%v", fx.spec, ok, err)
	}
	if got := service.FingerprintGraph(g2); got != fx.gfp {
		t.Fatalf("%s: GetGraph returned graph with fingerprint %s, want %s", fx.spec, got, fx.gfp)
	}
	p2, ok, err := b.GetPartition(fx.pfp, fx.g)
	if err != nil || !ok {
		t.Fatalf("%s: GetPartition: ok=%v err=%v", fx.spec, ok, err)
	}
	if got := service.FingerprintPartition(p2); got != fx.pfp {
		t.Fatalf("%s: GetPartition returned partition with fingerprint %s, want %s", fx.spec, got, fx.pfp)
	}
	res2, bt2, ok, err := b.GetShortcut(fx.key, fx.g, fx.parts)
	if err != nil || !ok {
		t.Fatalf("%s: GetShortcut: ok=%v err=%v", fx.spec, ok, err)
	}
	got := store.EncodeShortcutRecordPayload(fx.gfp, fx.parts, fx.opts, res2, bt2)
	if !bytes.Equal(got, fx.canonicalPayload()) {
		t.Fatalf("%s: GetShortcut round-trip is not canonical-identical", fx.spec)
	}
	// Key only: the record is decoded with its own partition record.
	res3, bt3, ok, err := b.GetShortcut(fx.key, fx.g, nil)
	if err != nil || !ok {
		t.Fatalf("%s: key-only GetShortcut: ok=%v err=%v", fx.spec, ok, err)
	}
	got = store.EncodeShortcutRecordPayload(fx.gfp, res3.Shortcut.Parts, fx.opts, res3, bt3)
	if !bytes.Equal(got, fx.canonicalPayload()) {
		t.Fatalf("%s: key-only GetShortcut round-trip is not canonical-identical", fx.spec)
	}
}

// jobPayload renders a valid job record payload (Verify decodes job
// records, so opaque garbage would register as corruption).
func jobPayload(t testing.TB, id uint64, state jobs.State) []byte {
	t.Helper()
	payload, err := jobs.EncodeRecord(jobs.Record{ID: jobs.ID(id), Kind: "build", State: state})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func mustVerifyClean(t testing.TB, b store.Backend) {
	t.Helper()
	if problems := b.Verify(); len(problems) != 0 {
		t.Fatalf("Verify: %d problems, first: %v", len(problems), problems[0])
	}
}

// Run exercises the full conformance suite against the backend f builds.
func Run(t *testing.T, f Factory) {
	if f.NewFS != nil && f.Reopen == nil {
		t.Fatal("storetest: Factory.NewFS requires Factory.Reopen")
	}

	t.Run("RoundTripFamilies", func(t *testing.T) { runRoundTrip(t, f) })
	t.Run("IdempotentRePuts", func(t *testing.T) { runIdempotent(t, f) })
	t.Run("TombstoneDelete", func(t *testing.T) { runTombstone(t, f) })
	t.Run("NoResurrection", func(t *testing.T) { runNoResurrection(t, f) })
	t.Run("IterationOrder", func(t *testing.T) { runIterationOrder(t, f) })
	t.Run("WrongPartition", func(t *testing.T) { runWrongPartition(t, f) })
	t.Run("GraphPayloadVerified", func(t *testing.T) { runGraphPayload(t, f) })
	t.Run("PeerSurface", func(t *testing.T) { runPeerSurface(t, f) })
	t.Run("Concurrency", func(t *testing.T) { runConcurrency(t, f) })
	if f.HasGC {
		t.Run("GCUnderConcurrentReaders", func(t *testing.T) { runGCUnderReaders(t, f) })
	}
	if f.Corrupt != nil {
		t.Run("TamperedPayload", func(t *testing.T) { runTamper(t, f) })
	}
	if f.NewFS != nil {
		t.Run("FaultInjection", func(t *testing.T) {
			t.Run("FailedFsync", func(t *testing.T) { runFailedFsync(t, f) })
			t.Run("TornWrite", func(t *testing.T) { runTornWrite(t, f) })
			if f.HasGC {
				t.Run("FaultMidGC", func(t *testing.T) { runFaultMidGC(t, f) })
			}
			t.Run("CrashReopenSweep", func(t *testing.T) { runCrashSweep(t, f) })
		})
	}
}

// runRoundTrip persists every record kind across every graph family and
// round-trips them, then again across a reopen (durable backends) or
// against a fresh instance (ephemeral backends start empty).
func runRoundTrip(t *testing.T, f Factory) {
	dir := t.TempDir()
	b := f.New(t, dir)
	var fxs []*fixture
	for _, fam := range families {
		fx := makeFixture(t, fam.spec, fam.parts, 1)
		fx.put(t, b)
		fxs = append(fxs, fx)
	}
	jobBytes := jobPayload(t, 42, jobs.Done)
	if err := b.PutJob(42, jobBytes); err != nil {
		t.Fatal(err)
	}
	for _, fx := range fxs {
		fx.checkGet(t, b)
	}
	if got, ok, err := b.GetJob(42); err != nil || !ok || !bytes.Equal(got, jobBytes) {
		t.Fatalf("GetJob: ok=%v err=%v payload-match=%v", ok, err, bytes.Equal(got, jobBytes))
	}
	st := b.OpenStats()
	if st.Graphs != len(fxs) || st.Shortcuts != len(fxs) || st.Jobs != 1 {
		t.Fatalf("OpenStats: %+v, want %d graphs, %d shortcuts, 1 job", st, len(fxs), len(fxs))
	}
	mustVerifyClean(t, b)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	if f.Reopen == nil {
		b2 := f.New(t, dir)
		if st := b2.OpenStats(); st.Graphs != 0 || st.Shortcuts != 0 || st.Jobs != 0 {
			t.Fatalf("ephemeral backend not empty after restart: %+v", st)
		}
		if err := b2.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return
	}
	b2 := f.Reopen(t, dir)
	defer b2.Close()
	for _, fx := range fxs {
		fx.checkGet(t, b2)
	}
	if got, ok, err := b2.GetJob(42); err != nil || !ok || !bytes.Equal(got, jobBytes) {
		t.Fatalf("GetJob after reopen: ok=%v err=%v", ok, err)
	}
	st2 := b2.OpenStats()
	if st2.Graphs != st.Graphs || st2.Partitions != st.Partitions ||
		st2.Shortcuts != st.Shortcuts || st2.Jobs != st.Jobs {
		t.Fatalf("OpenStats after reopen: %+v, want counts of %+v", st2, st)
	}
	mustVerifyClean(t, b2)
}

// runIdempotent re-puts known content and checks nothing grows.
func runIdempotent(t *testing.T, f Factory) {
	b := f.New(t, t.TempDir())
	defer b.Close()
	fx := makeFixture(t, "grid:6x6", "blobs:4", 2)
	fx.put(t, b)
	before := len(b.Records())
	for i := 0; i < 3; i++ {
		fx.put(t, b)
		if err := b.PutGraphPayload(fx.gfp, store.EncodeGraphPayload(fx.g)); err != nil {
			t.Fatal(err)
		}
	}
	if after := len(b.Records()); after != before {
		t.Fatalf("re-puts grew live records: %d -> %d", before, after)
	}
	fx.checkGet(t, b)
}

// runTombstone deletes one graph and checks the delete takes out its
// shortcuts, spares unrelated records, and (durable backends) survives
// reopen.
func runTombstone(t *testing.T, f Factory) {
	dir := t.TempDir()
	b := f.New(t, dir)
	fxA := makeFixture(t, "grid:6x6", "blobs:4", 3)
	fxB := makeFixture(t, "torus:4x4", "blobs:3", 3)
	fxA.put(t, b)
	fxB.put(t, b)
	if err := b.DeleteGraph(fxA.gfp); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteGraph(service.Fingerprint(0xdead)); err != nil {
		t.Fatalf("deleting an absent graph must be a no-op, got %v", err)
	}
	checkGone := func(b store.Backend, when string) {
		t.Helper()
		if _, ok, err := b.GetGraph(fxA.gfp); ok || err != nil {
			t.Fatalf("%s: deleted graph still served: ok=%v err=%v", when, ok, err)
		}
		if b.HasShortcut(fxA.key) {
			t.Fatalf("%s: shortcut of deleted graph still live", when)
		}
		if _, _, ok, err := b.GetShortcut(fxA.key, fxA.g, fxA.parts); ok || err != nil {
			t.Fatalf("%s: deleted shortcut still served: ok=%v err=%v", when, ok, err)
		}
		fxB.checkGet(t, b)
	}
	checkGone(b, "before reopen")
	mustVerifyClean(t, b)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if f.Reopen == nil {
		return
	}
	b2 := f.Reopen(t, dir)
	defer b2.Close()
	checkGone(b2, "after reopen")
	mustVerifyClean(t, b2)
}

// runNoResurrection checks a PutShortcut racing behind DeleteGraph is
// silently dropped.
func runNoResurrection(t *testing.T, f Factory) {
	b := f.New(t, t.TempDir())
	defer b.Close()
	fx := makeFixture(t, "grid:5x5", "blobs:4", 4)
	if err := b.PutGraph(fx.gfp, fx.g); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteGraph(fx.gfp); err != nil {
		t.Fatal(err)
	}
	if err := b.PutShortcut(fx.key, fx.gfp, fx.parts, fx.opts, fx.res, fx.bt); err != nil {
		t.Fatalf("PutShortcut after DeleteGraph must drop silently, got %v", err)
	}
	if b.HasShortcut(fx.key) {
		t.Fatal("shortcut resurrected a deleted graph")
	}
	mustVerifyClean(t, b)
}

// runIterationOrder checks the deterministic warm-start orders: EachGraph
// ascends by fingerprint, EachJob by job ID.
func runIterationOrder(t *testing.T, f Factory) {
	b := f.New(t, t.TempDir())
	defer b.Close()
	want := make(map[service.Fingerprint]bool)
	for _, fam := range families[:5] {
		g, _, err := cli.ParseGraph(fam.spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		fp := service.FingerprintGraph(g)
		if err := b.PutGraph(fp, g); err != nil {
			t.Fatal(err)
		}
		want[fp] = true
	}
	var prev service.Fingerprint
	seen := 0
	if err := b.EachGraph(func(fp service.Fingerprint, g *graph.Graph) error {
		if seen > 0 && fp <= prev {
			t.Fatalf("EachGraph out of order: %s after %s", fp, prev)
		}
		if !want[fp] {
			t.Fatalf("EachGraph yielded unknown fingerprint %s", fp)
		}
		prev, seen = fp, seen+1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(want) {
		t.Fatalf("EachGraph yielded %d graphs, want %d", seen, len(want))
	}

	for _, id := range []uint64{5, 1, 9} {
		if err := b.PutJob(id, jobPayload(t, id, jobs.Queued)); err != nil {
			t.Fatal(err)
		}
	}
	var ids []uint64
	if err := b.EachJob(func(id uint64, payload []byte) error {
		ids = append(ids, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ids) != "[1 5 9]" {
		t.Fatalf("EachJob order: %v, want [1 5 9]", ids)
	}
}

// runWrongPartition checks a stored shortcut read back against the wrong
// partition surfaces an error, never a silently wrong result.
func runWrongPartition(t *testing.T, f Factory) {
	b := f.New(t, t.TempDir())
	defer b.Close()
	fx := makeFixture(t, "grid:6x6", "blobs:4", 6)
	fx.put(t, b)
	other, err := cli.ParsePartition(fx.g, "blobs:7", 99)
	if err != nil {
		t.Fatal(err)
	}
	if service.FingerprintPartition(other) == fx.pfp {
		t.Fatal("test needs a distinct partition")
	}
	if _, _, ok, err := b.GetShortcut(fx.key, fx.g, other); err == nil && ok {
		t.Fatal("GetShortcut served a shortcut against the wrong partition")
	}
}

// runGraphPayload checks PutGraphPayload verifies content before writing.
func runGraphPayload(t *testing.T, f Factory) {
	b := f.New(t, t.TempDir())
	defer b.Close()
	fx := makeFixture(t, "wheel:30", "blobs:3", 7)
	payload := store.EncodeGraphPayload(fx.g)
	if err := b.PutGraphPayload(fx.gfp, payload); err != nil {
		t.Fatal(err)
	}
	fx2 := makeFixture(t, "cycle:12", "blobs:2", 7)
	bad := append([]byte(nil), store.EncodeGraphPayload(fx2.g)...)
	bad[len(bad)-1] ^= 0x01
	if err := b.PutGraphPayload(fx2.gfp, bad); err == nil {
		t.Fatal("PutGraphPayload accepted a payload that does not hash to its key")
	}
	if err := b.PutGraphPayload(fx2.gfp, payload); err == nil {
		t.Fatal("PutGraphPayload accepted a payload under the wrong key")
	}
	if _, ok, _ := b.GetGraph(fx2.gfp); ok {
		t.Fatal("rejected payload became a live record")
	}
	mustVerifyClean(t, b)
}

// runPeerSurface checks the inventory/export/import surface cluster
// replication rides on.
func runPeerSurface(t *testing.T, f Factory) {
	b := f.New(t, t.TempDir())
	defer b.Close()
	var fxs []*fixture
	for _, fam := range families[:4] {
		fx := makeFixture(t, fam.spec, fam.parts, 8)
		fx.put(t, b)
		fxs = append(fxs, fx)
	}

	fps := b.GraphFingerprints()
	if len(fps) != len(fxs) {
		t.Fatalf("GraphFingerprints: %d, want %d", len(fps), len(fxs))
	}
	for i := 1; i < len(fps); i++ {
		if fps[i-1] >= fps[i] {
			t.Fatal("GraphFingerprints not sorted")
		}
	}

	inv := b.ShortcutInventory(0, 0)
	if len(inv) != len(fxs) {
		t.Fatalf("full-circle inventory: %d entries, want %d", len(inv), len(fxs))
	}
	for i := 1; i < len(inv); i++ {
		if inv[i-1].Key >= inv[i].Key {
			t.Fatal("ShortcutInventory not sorted by key")
		}
	}
	for _, fx := range fxs {
		arc := b.ShortcutInventory(uint64(fx.key)-1, uint64(fx.key))
		found := false
		for _, e := range arc {
			if e.Key == fx.key {
				found = true
				if e.GraphFP != fx.gfp || e.PartitionFP != fx.pfp {
					t.Fatalf("inventory entry for %s has wrong dependencies", fx.key)
				}
			}
		}
		if !found {
			t.Fatalf("arc (key-1, key] missed key %s", fx.key)
		}
		if !b.HasShortcut(fx.key) || !b.GraphKnown(fx.gfp) {
			t.Fatal("HasShortcut/GraphKnown miss for live records")
		}
	}

	// Export, verify, and import into a second instance.
	fx := fxs[0]
	rec, ok, err := b.ShortcutRecord(fx.key)
	if err != nil || !ok {
		t.Fatalf("ShortcutRecord: ok=%v err=%v", ok, err)
	}
	if _, _, _, _, err := store.VerifyPeerRecord(rec); err != nil {
		t.Fatalf("exported record fails verification: %v", err)
	}
	b2 := f.New(t, t.TempDir())
	defer b2.Close()
	if _, written, err := b2.ImportShortcut(rec); err != nil || !written {
		t.Fatalf("ImportShortcut: written=%v err=%v", written, err)
	}
	if _, written, err := b2.ImportShortcut(rec); err != nil || written {
		t.Fatalf("re-import must dedupe: written=%v err=%v", written, err)
	}
	fx.checkGet(t, b2)
	mustVerifyClean(t, b2)

	// A tampered record must be rejected wholesale.
	bad := rec
	bad.ShortcutPayload = append([]byte(nil), rec.ShortcutPayload...)
	bad.ShortcutPayload[len(bad.ShortcutPayload)-1] ^= 0x01
	b3 := f.New(t, t.TempDir())
	defer b3.Close()
	if _, _, err := b3.ImportShortcut(bad); err == nil {
		t.Fatal("ImportShortcut accepted a tampered payload")
	}
	if b3.HasShortcut(bad.Key) || b3.GraphKnown(bad.GraphFP) {
		t.Fatal("tampered import left records behind")
	}
}

// runConcurrency drives writers, readers, and a deleter concurrently; the
// -race matrix entry turns this into the suite's schedule check. The
// backend must stay error-free and verify clean.
func runConcurrency(t *testing.T, f Factory) {
	b := f.New(t, t.TempDir())
	defer b.Close()
	var fxs []*fixture
	for _, fam := range families[:3] {
		fxs = append(fxs, makeFixture(t, fam.spec, fam.parts, 9))
	}
	victim := makeFixture(t, "grid:4x4", "blobs:2", 9)

	const iters = 60
	var wg sync.WaitGroup
	errs := make(chan error, 256)
	report := func(err error) {
		if err != nil {
			select {
			case errs <- err:
			default:
			}
		}
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fx := fxs[(w+i)%len(fxs)]
				report(b.PutGraph(fx.gfp, fx.g))
				report(b.PutShortcut(fx.key, fx.gfp, fx.parts, fx.opts, fx.res, fx.bt))
				report(b.PutJob(uint64(w)*1000+uint64(i), jobPayload(t, uint64(w)*1000+uint64(i), jobs.Running)))
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fx := fxs[(r+i)%len(fxs)]
				if _, _, _, err := b.GetShortcut(fx.key, fx.g, fx.parts); err != nil {
					report(err)
				}
				report(b.EachGraph(func(service.Fingerprint, *graph.Graph) error { return nil }))
				b.ShortcutInventory(uint64(i), uint64(i+1000))
				b.OpenStats()
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			report(b.PutGraph(victim.gfp, victim.g))
			report(b.PutShortcut(victim.key, victim.gfp, victim.parts, victim.opts, victim.res, victim.bt))
			report(b.DeleteGraph(victim.gfp))
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, fx := range fxs {
		fx.checkGet(t, b)
	}
	mustVerifyClean(t, b)
}

// runGCUnderReaders pins the graveyard contract: payload slices handed out
// before a GC must stay byte-stable across it.
func runGCUnderReaders(t *testing.T, f Factory) {
	b := f.New(t, t.TempDir())
	defer b.Close()
	var fxs []*fixture
	for _, fam := range families[:4] {
		fx := makeFixture(t, fam.spec, fam.parts, 10)
		fx.put(t, b)
		fxs = append(fxs, fx)
	}
	victim := fxs[0]

	// Hand out payload slices (zero-copy on the mmap'd segment store) and
	// snapshot their contents before any GC.
	type held struct {
		key      service.Fingerprint
		slice    []byte
		snapshot []byte
	}
	var holds []held
	for _, fx := range fxs {
		payload, ok, err := b.ShortcutPayload(fx.key)
		if err != nil || !ok {
			t.Fatalf("ShortcutPayload: ok=%v err=%v", ok, err)
		}
		holds = append(holds, held{fx.key, payload, append([]byte(nil), payload...)})
	}

	// Readers continuously re-read the held slices while the delete and
	// GC run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, h := range holds {
					if !bytes.Equal(h.slice, h.snapshot) {
						panic("held payload slice mutated during GC")
					}
				}
			}
		}()
	}

	if err := b.DeleteGraph(victim.gfp); err != nil {
		t.Fatal(err)
	}
	gc, ok := b.(store.Compactor)
	if !ok {
		t.Fatal("Factory.HasGC set but backend does not implement store.Compactor")
	}
	stats, err := gc.GC()
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if stats.LiveRecords == 0 {
		t.Fatal("GC reports zero live records with live fixtures present")
	}
	for _, h := range holds {
		if !bytes.Equal(h.slice, h.snapshot) {
			t.Fatalf("payload slice for %s changed across GC", h.key)
		}
	}
	for _, fx := range fxs[1:] {
		fx.checkGet(t, b)
	}
	if b.HasShortcut(victim.key) {
		t.Fatal("GC resurrected a deleted shortcut")
	}
	mustVerifyClean(t, b)
}

// runTamper flips stored payload bytes on disk and checks the backend
// detects the damage and never serves an unverifiable record.
func runTamper(t *testing.T, f Factory) {
	if f.Reopen == nil {
		t.Skip("tamper case needs a durable backend")
	}
	dir := t.TempDir()
	b := f.New(t, dir)
	var fxs []*fixture
	for _, fam := range families[:4] {
		fx := makeFixture(t, fam.spec, fam.parts, 11)
		fx.put(t, b)
		fxs = append(fxs, fx)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	f.Corrupt(t, dir)
	b2 := f.Reopen(t, dir)
	defer b2.Close()

	st := b2.OpenStats()
	detected := len(b2.Verify()) + st.CorruptSkipped
	if st.TruncatedBytes > 0 {
		detected++ // tail damage repaired by truncation counts as detected
	}
	if detected == 0 {
		t.Fatal("tampered payload went completely undetected")
	}
	// Whatever is still served must re-verify; damage surfaces as a miss
	// or an error, never a wrong answer.
	for _, fx := range fxs {
		if g, ok, err := b2.GetGraph(fx.gfp); err == nil && ok {
			if service.FingerprintGraph(g) != fx.gfp {
				t.Fatalf("%s: tampered graph served as a wrong answer", fx.spec)
			}
		}
		res2, bt2, ok, err := b2.GetShortcut(fx.key, fx.g, fx.parts)
		if err == nil && ok {
			got := store.EncodeShortcutRecordPayload(fx.gfp, fx.parts, fx.opts, res2, bt2)
			if !bytes.Equal(got, fx.canonicalPayload()) {
				t.Fatalf("%s: tampered shortcut served as a wrong answer", fx.spec)
			}
		}
	}
}

// runFailedFsync checks a failed fsync surfaces as a put error, the failed
// record is not acknowledged, and the backend recovers once the fault
// clears.
func runFailedFsync(t *testing.T, f Factory) {
	dir := t.TempDir()
	efs := errfs.New()
	b, err := f.NewFS(t, dir, efs)
	if err != nil {
		t.Fatal(err)
	}
	fx1 := makeFixture(t, "grid:6x6", "blobs:4", 12)
	fx1.put(t, b)

	fx2 := makeFixture(t, "torus:4x4", "blobs:3", 12)
	efs.FailNextKind("sync")
	if err := b.PutGraph(fx2.gfp, fx2.g); err == nil {
		t.Fatal("PutGraph succeeded through a failed fsync")
	}
	efs.SetHook(nil)

	// Fault cleared: the same put must now succeed, and nothing already
	// acknowledged was damaged.
	if err := b.PutGraph(fx2.gfp, fx2.g); err != nil {
		t.Fatalf("PutGraph after fault cleared: %v", err)
	}
	if _, ok, err := b.GetGraph(fx2.gfp); err != nil || !ok {
		t.Fatalf("GetGraph after retry: ok=%v err=%v", ok, err)
	}
	fx1.checkGet(t, b)
	mustVerifyClean(t, b)
	if err := b.Close(); err != nil {
		t.Fatalf("Close before reopen: %v", err)
	}

	b2 := f.Reopen(t, dir)
	defer b2.Close()
	fx1.checkGet(t, b2)
	mustVerifyClean(t, b2)
}

// runTornWrite tears a write partway and checks the unacknowledged record
// stays invisible, in-flight damage is repaired, and a reopen comes up
// clean with every acknowledged record intact.
func runTornWrite(t *testing.T, f Factory) {
	dir := t.TempDir()
	efs := errfs.New()
	b, err := f.NewFS(t, dir, efs)
	if err != nil {
		t.Fatal(err)
	}
	fx1 := makeFixture(t, "grid:6x6", "blobs:4", 13)
	fx1.put(t, b)

	fx2 := makeFixture(t, "wheel:30", "blobs:3", 13)
	armed := true
	efs.SetHook(func(op errfs.Op) errfs.Fault {
		if armed && op.Kind == "write" {
			armed = false
			return errfs.Fault{Err: errfs.ErrInjected, Partial: 7}
		}
		return errfs.Fault{}
	})
	if err := b.PutGraph(fx2.gfp, fx2.g); err == nil {
		t.Fatal("PutGraph succeeded through a torn write")
	}
	efs.SetHook(nil)
	if _, ok, _ := b.GetGraph(fx2.gfp); ok {
		t.Fatal("torn record became visible")
	}
	// The backend must absorb the torn bytes: a retry lands cleanly.
	if err := b.PutGraph(fx2.gfp, fx2.g); err != nil {
		t.Fatalf("PutGraph retry over torn bytes: %v", err)
	}
	fx1.checkGet(t, b)
	mustVerifyClean(t, b)
	if err := b.Close(); err != nil {
		t.Fatalf("Close before reopen: %v", err)
	}

	b2 := f.Reopen(t, dir)
	defer b2.Close()
	fx1.checkGet(t, b2)
	if _, ok, err := b2.GetGraph(fx2.gfp); err != nil || !ok {
		t.Fatalf("retried record lost across reopen: ok=%v err=%v", ok, err)
	}
	mustVerifyClean(t, b2)
}

// runFaultMidGC fails the first filesystem operation GC issues and checks
// the failed GC loses nothing, then a clean GC succeeds.
func runFaultMidGC(t *testing.T, f Factory) {
	dir := t.TempDir()
	efs := errfs.New()
	b, err := f.NewFS(t, dir, efs)
	if err != nil {
		t.Fatal(err)
	}
	var fxs []*fixture
	for _, fam := range families[:3] {
		fx := makeFixture(t, fam.spec, fam.parts, 14)
		fx.put(t, b)
		fxs = append(fxs, fx)
	}
	if err := b.DeleteGraph(fxs[0].gfp); err != nil {
		t.Fatal(err)
	}
	gc, ok := b.(store.Compactor)
	if !ok {
		t.Fatal("Factory.HasGC set but backend does not implement store.Compactor")
	}

	var once sync.Once
	efs.SetHook(func(op errfs.Op) errfs.Fault {
		var fault errfs.Fault
		once.Do(func() { fault = errfs.Fault{Err: errfs.ErrInjected} })
		return fault
	})
	if _, err := gc.GC(); err == nil {
		t.Fatal("GC succeeded through an injected fault")
	}
	efs.SetHook(nil)

	for _, fx := range fxs[1:] {
		fx.checkGet(t, b)
	}
	mustVerifyClean(t, b)
	if _, err := gc.GC(); err != nil {
		t.Fatalf("GC after fault cleared: %v", err)
	}
	for _, fx := range fxs[1:] {
		fx.checkGet(t, b)
	}
	mustVerifyClean(t, b)
	if err := b.Close(); err != nil {
		t.Fatalf("Close before reopen: %v", err)
	}

	b2 := f.Reopen(t, dir)
	defer b2.Close()
	for _, fx := range fxs[1:] {
		fx.checkGet(t, b2)
	}
	mustVerifyClean(t, b2)
}

// crashStep is one scripted operation of the crash sweep workload.
type crashStep struct {
	desc string
	run  func(b store.Backend) error
	// apply folds an acknowledged step into the expected live set;
	// clobber marks the keys whose post-crash state is indeterminate when
	// the step did NOT acknowledge.
	apply   func(m *crashModel)
	clobber func(m *crashModel)
}

// crashModel tracks, per key, whether the record must exist, must not
// exist, or may be either after an interrupted workload.
type crashModel struct {
	graphs    map[service.Fingerprint]int // 1 must exist, -1 must not, 0 unknown
	shortcuts map[service.Fingerprint]int
	jobs      map[uint64]int
}

func newCrashModel() *crashModel {
	return &crashModel{
		graphs:    make(map[service.Fingerprint]int),
		shortcuts: make(map[service.Fingerprint]int),
		jobs:      make(map[uint64]int),
	}
}

// runCrashSweep simulates a crash at every Nth filesystem mutation of a
// fixed workload, reopens the directory on the real filesystem, and checks
// acknowledged state survived, unacknowledged state is at worst absent,
// and the store verifies clean and accepts writes — for every crash point.
func runCrashSweep(t *testing.T, f Factory) {
	fxA := makeFixture(t, "grid:5x5", "blobs:3", 15)
	fxB := makeFixture(t, "torus:4x4", "blobs:2", 15)
	steps := []crashStep{
		{
			desc:    "put graph A",
			run:     func(b store.Backend) error { return b.PutGraph(fxA.gfp, fxA.g) },
			apply:   func(m *crashModel) { m.graphs[fxA.gfp] = 1 },
			clobber: func(m *crashModel) { m.graphs[fxA.gfp] = 0 },
		},
		{
			desc: "put shortcut A",
			run: func(b store.Backend) error {
				return b.PutShortcut(fxA.key, fxA.gfp, fxA.parts, fxA.opts, fxA.res, fxA.bt)
			},
			// An error-free PutShortcut only guarantees the record when the
			// graph put was acknowledged too: a shortcut against a non-live
			// graph is silently dropped by contract.
			apply: func(m *crashModel) {
				if m.graphs[fxA.gfp] == 1 {
					m.shortcuts[fxA.key] = 1
				} else {
					m.shortcuts[fxA.key] = 0
				}
			},
			clobber: func(m *crashModel) { m.shortcuts[fxA.key] = 0 },
		},
		{
			desc:    "put job 7",
			run:     func(b store.Backend) error { return b.PutJob(7, mustJobPayload(7)) },
			apply:   func(m *crashModel) { m.jobs[7] = 1 },
			clobber: func(m *crashModel) { m.jobs[7] = 0 },
		},
		{
			desc:    "put graph B",
			run:     func(b store.Backend) error { return b.PutGraph(fxB.gfp, fxB.g) },
			apply:   func(m *crashModel) { m.graphs[fxB.gfp] = 1 },
			clobber: func(m *crashModel) { m.graphs[fxB.gfp] = 0 },
		},
		{
			desc: "put shortcut B",
			run: func(b store.Backend) error {
				return b.PutShortcut(fxB.key, fxB.gfp, fxB.parts, fxB.opts, fxB.res, fxB.bt)
			},
			apply: func(m *crashModel) {
				if m.graphs[fxB.gfp] == 1 {
					m.shortcuts[fxB.key] = 1
				} else {
					m.shortcuts[fxB.key] = 0
				}
			},
			clobber: func(m *crashModel) { m.shortcuts[fxB.key] = 0 },
		},
		{
			desc: "delete graph A",
			run:  func(b store.Backend) error { return b.DeleteGraph(fxA.gfp) },
			// A delete erases what the store saw. If the graph put never
			// acknowledged, the delete was a no-op over a possibly-durable
			// latent record, which may legitimately revive at reopen — only
			// an acked put followed by an acked delete pins "must not
			// exist".
			apply: func(m *crashModel) {
				if m.graphs[fxA.gfp] == 1 {
					m.graphs[fxA.gfp] = -1
					if m.shortcuts[fxA.key] == 1 {
						m.shortcuts[fxA.key] = -1
					} else {
						m.shortcuts[fxA.key] = 0
					}
				} else {
					m.graphs[fxA.gfp] = 0
					m.shortcuts[fxA.key] = 0
				}
			},
			clobber: func(m *crashModel) {
				m.graphs[fxA.gfp] = 0
				m.shortcuts[fxA.key] = 0
			},
		},
		{
			desc:    "put job 8",
			run:     func(b store.Backend) error { return b.PutJob(8, mustJobPayload(8)) },
			apply:   func(m *crashModel) { m.jobs[8] = 1 },
			clobber: func(m *crashModel) { m.jobs[8] = 0 },
		},
	}

	// Dry run to size the sweep: how many counted mutations does the full
	// workload (including Open) issue?
	total := func() int {
		efs := errfs.New()
		dir := t.TempDir()
		b, err := f.NewFS(t, dir, efs)
		if err != nil {
			t.Fatalf("dry run open: %v", err)
		}
		for _, st := range steps {
			if err := st.run(b); err != nil {
				t.Fatalf("dry run %s: %v", st.desc, err)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatalf("dry-run Close: %v", err)
		}
		return efs.Ops()
	}()
	if total == 0 {
		t.Fatal("workload issued no filesystem mutations")
	}

	for n := 1; n <= total; n++ {
		n := n
		t.Run(fmt.Sprintf("op%03d", n), func(t *testing.T) {
			dir := t.TempDir()
			efs := errfs.New()
			efs.CrashAtOp(n)
			model := newCrashModel()
			b, err := f.NewFS(t, dir, efs)
			if err == nil {
				for _, st := range steps {
					if err := st.run(b); err != nil {
						st.clobber(model)
					} else {
						st.apply(model)
					}
				}
				_ = b.Close() // errors expected under a crashed FS
			}

			b2 := f.Reopen(t, dir)
			defer b2.Close()
			for fp, want := range model.graphs {
				g, ok, err := b2.GetGraph(fp)
				switch {
				case want == 1 && (err != nil || !ok):
					t.Fatalf("crash@%d: acked graph %s lost: ok=%v err=%v", n, fp, ok, err)
				case want == -1 && ok:
					t.Fatalf("crash@%d: deleted graph %s resurrected", n, fp)
				case ok && service.FingerprintGraph(g) != fp:
					t.Fatalf("crash@%d: graph %s served with wrong content", n, fp)
				}
			}
			for key, want := range model.shortcuts {
				ok := b2.HasShortcut(key)
				if want == 1 && !ok {
					t.Fatalf("crash@%d: acked shortcut %s lost", n, key)
				}
				if want == -1 && ok {
					t.Fatalf("crash@%d: deleted shortcut %s resurrected", n, key)
				}
			}
			for id, want := range model.jobs {
				payload, ok, err := b2.GetJob(id)
				if want == 1 && (err != nil || !ok || !bytes.Equal(payload, mustJobPayload(id))) {
					t.Fatalf("crash@%d: acked job %d lost or damaged: ok=%v err=%v", n, id, ok, err)
				}
			}
			mustVerifyClean(t, b2)
			// The reopened store must accept new writes.
			fresh := makeFixture(t, "path:9", "blobs:2", int64(16+n))
			if err := b2.PutGraph(fresh.gfp, fresh.g); err != nil {
				t.Fatalf("crash@%d: reopened store rejects writes: %v", n, err)
			}
		})
	}
}

func mustJobPayload(id uint64) []byte {
	payload, err := jobs.EncodeRecord(jobs.Record{ID: jobs.ID(id), Kind: "build", State: jobs.Done})
	if err != nil {
		panic(err)
	}
	return payload
}
