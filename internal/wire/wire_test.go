package wire

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"

	"locshort/internal/graph"
	"locshort/internal/service"
)

// sameRequest compares two requests field by field. A nil and a non-nil
// empty Parts differ (they select different frame versions); inner parts
// compare by their elements.
func sameRequest(a, b ShortcutRequest) bool {
	if a.Graph != b.Graph || a.Partition != b.Partition || a.Seed != b.Seed || a.Options != b.Options ||
		(a.Parts == nil) != (b.Parts == nil) || len(a.Parts) != len(b.Parts) {
		return false
	}
	for i := range a.Parts {
		if len(a.Parts[i]) != len(b.Parts[i]) {
			return false
		}
		for j := range a.Parts[i] {
			if a.Parts[i][j] != b.Parts[i][j] {
				return false
			}
		}
	}
	return true
}

func TestShortcutRequestRoundTrip(t *testing.T) {
	cases := []ShortcutRequest{
		{},
		{Graph: 0xdeadbeefcafef00d, Partition: "blobs:8", Seed: 42, Options: "delta=3"},
		{Graph: 1, Partition: "rows:16x16", Seed: -7},
		{Graph: service.Fingerprint(^uint64(0)), Partition: strings.Repeat("x", 1000), Seed: 1<<62 - 1, Options: strings.Repeat("o", 1000)},
		{Graph: 7, Parts: [][]int{{4, 0, 2}, {1}, {3, 5}}},
		{Graph: 8, Parts: [][]int{}},
		{Graph: 10, Parts: [][]int{{math.MaxInt, 0, 1 << 40}}, Seed: 5},
	}
	for i, want := range cases {
		b := AppendShortcutRequest(nil, want)
		wantV := byte(1)
		if want.Parts != nil {
			wantV = 2
		}
		if b[0] != wantV {
			t.Errorf("case %d: version byte %d, want %d", i, b[0], wantV)
		}
		got, err := DecodeShortcutRequest(b)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !sameRequest(got, want) {
			t.Errorf("case %d: round trip changed the request:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestShortcutRequestV1Bytes pins the spec-form frame byte for byte: a
// request without parts must keep encoding exactly as version 1 always
// has, so v1 clients, recorded bodies, and the committed fuzz corpus stay
// valid.
func TestShortcutRequestV1Bytes(t *testing.T) {
	got := hex.EncodeToString(AppendShortcutRequest(nil, ShortcutRequest{
		Graph: 0x346a1124012c1d61, Partition: "blobs:8", Seed: -3, Options: "delta=4",
	}))
	const want = "01346a1124012c1d6107626c6f62733a38050764656c74613d34"
	if got != want {
		t.Fatalf("v1 frame = %s, want %s", got, want)
	}
}

func TestShortcutRequestDecodeErrors(t *testing.T) {
	valid := AppendShortcutRequest(nil, ShortcutRequest{
		Graph: 5, Partition: "blobs:4", Seed: 9, Options: "delta=2",
	})
	withParts := AppendShortcutRequest(nil, ShortcutRequest{
		Graph: 5, Options: "delta=2", Parts: [][]int{{0, 300}, {2}},
	})
	// Every strict prefix must fail: neither layout has an optional suffix.
	for _, frame := range [][]byte{valid, withParts} {
		for n := 0; n < len(frame); n++ {
			if _, err := DecodeShortcutRequest(frame[:n]); err == nil {
				t.Fatalf("prefix of %d/%d bytes of a v%d frame decoded without error", n, len(frame), frame[0])
			}
		}
	}
	bad := append([]byte{}, valid...)
	bad[0] = 3
	if _, err := DecodeShortcutRequest(bad); err == nil {
		t.Error("future version byte accepted")
	}
	// A v1 body relabeled v2 lacks the part count.
	bad[0] = 2
	if _, err := DecodeShortcutRequest(bad); err == nil {
		t.Error("v2 frame without a part list accepted")
	}
	for _, frame := range [][]byte{valid, withParts} {
		if _, err := DecodeShortcutRequest(append(append([]byte{}, frame...), 0)); err == nil {
			t.Errorf("trailing byte after a v%d frame accepted", frame[0])
		}
	}
	// A declared string length far beyond the buffer must be rejected
	// before allocation (maxRequestString).
	huge := []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := DecodeShortcutRequest(huge); err == nil {
		t.Error("absurd string length accepted")
	}
	// Claimed part counts, part sizes, and node IDs past what the frame
	// can hold or graph.MaxNodes allows, empty parts, and bytes after the
	// last part are rejected before anything is allocated.
	head := AppendShortcutRequest(nil, ShortcutRequest{Graph: 5})
	head[0] = 2
	for name, tail := range map[string][]byte{
		"part count":        binary.AppendUvarint(nil, 1<<40),
		"part size":         binary.AppendUvarint([]byte{1}, 1<<40),
		"node ID":           binary.AppendUvarint([]byte{1, 1}, math.MaxUint64),
		"part count > max":  binary.AppendUvarint(nil, graph.MaxNodes+1),
		"node IDs > max":    binary.AppendUvarint([]byte{1}, graph.MaxNodes+1),
		"empty part":        {1, 0},
		"empty second part": {2, 1, 7, 0},
		"trailing byte":     {1, 1, 7, 0},
	} {
		if _, err := DecodeShortcutRequest(append(append([]byte{}, head...), tail...)); err == nil {
			t.Errorf("absurd %s accepted", name)
		}
	}
}

// TestEmptyPartsBoundedBeforeAllocation decodes a 4 MiB frame of
// 4,194,304 empty parts, which sized a part list of 96 MiB before the
// list was validated first: it must fail having allocated next to
// nothing. A well-formed list costs two allocations whatever its length:
// the part list and the one array its node IDs share.
func TestEmptyPartsBoundedBeforeAllocation(t *testing.T) {
	head := AppendShortcutRequest(nil, ShortcutRequest{Graph: 5, Parts: [][]int{}})
	const k = 1 << 22
	empty := append(binary.AppendUvarint(head[:len(head)-1], k), make([]byte, k)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeShortcutRequest(empty)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a frame of empty parts decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("refusing %d empty parts allocated %d bytes, want under 1 MiB", k, got)
	}

	single := binary.AppendUvarint(head[:len(head)-1], 4)
	for v := range 4 {
		single = append(single, 1, byte(v))
	}
	if n := testing.AllocsPerRun(10, func() {
		r, err := DecodeShortcutRequest(single)
		if err != nil || len(r.Parts) != 4 || r.Parts[3][0] != 3 {
			t.Fatalf("one-node parts: %+v, %v", r, err)
		}
	}); n != 2 {
		t.Errorf("four one-node parts: %.0f allocs, want 2 (the part list and its IDs)", n)
	}
}

// TestDecodeInterned holds the interning decode to the copying one: the
// same request, its strings still intact after the frame is overwritten,
// and no allocation for a repeat request whose strings the table holds.
// Strings past the table's length bound, or arriving once it is full,
// still decode, each a fresh copy.
func TestDecodeInterned(t *testing.T) {
	strs := NewInterner(2, 8)
	for _, req := range []ShortcutRequest{
		{Graph: 1, Partition: "blobs:16", Seed: 3, Options: "cf=2"},
		{Graph: 2, Partition: "blobs:16", Seed: 4},
		{Graph: 3, Partition: "rows:4x4", Options: "delta=16"}, // table full: copied
		{Graph: 4, Partition: strings.Repeat("p", 9), Seed: 5}, // past maxLen: copied
		{Graph: 5, Options: "cf=2", Parts: [][]int{{0, 1}, {2}}},
	} {
		frame := AppendShortcutRequest(nil, req)
		want, err := DecodeShortcutRequest(frame)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			got, err := DecodeShortcutRequestInterned(frame, strs)
			if err != nil || !sameRequest(got, want) {
				t.Fatalf("interned decode of %+v: %+v, %v", req, got, err)
			}
			clear(frame)
			if !sameRequest(got, req) {
				t.Fatalf("decoded %+v changed with its frame overwritten: %+v", req, got)
			}
			frame = AppendShortcutRequest(frame[:0], req)
		}
	}
	if len(strs.strs) != 2 {
		t.Errorf("table holds %d strings, want its limit of 2", len(strs.strs))
	}
	held := AppendShortcutRequest(nil, ShortcutRequest{Graph: 7, Partition: "blobs:16", Seed: 9, Options: "cf=2"})
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeShortcutRequestInterned(held, strs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a request whose strings the table holds: %.1f allocs, want 0", n)
	}
	past := AppendShortcutRequest(nil, ShortcutRequest{Graph: 7, Partition: "rows:4x4", Options: strings.Repeat("o", 9)})
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeShortcutRequestInterned(past, strs); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("a request past the table's bounds: %.1f allocs, want 2 (one per string)", n)
	}
}

func TestIsBinary(t *testing.T) {
	for v, want := range map[string]bool{
		ContentType:                      true,
		" application/x-locshort ":       true,
		"application/x-locshort; q=0.9":  true,
		"application/json":               false,
		"":                               false,
		"application/x-locshort-variant": false,
	} {
		if got := IsBinary(v); got != want {
			t.Errorf("IsBinary(%q) = %v, want %v", v, got, want)
		}
	}
}

func FuzzDecodeShortcutRequest(f *testing.F) {
	f.Add(AppendShortcutRequest(nil, ShortcutRequest{Graph: 3, Partition: "blobs:4", Seed: 1}))
	f.Add([]byte{1})
	f.Add(AppendShortcutRequest(nil, ShortcutRequest{Graph: 3, Parts: [][]int{{0, 1, 2}, {200, 3}}}))
	f.Add(AppendShortcutRequest(nil, ShortcutRequest{Graph: 3, Parts: [][]int{}}))
	f.Add(append(AppendShortcutRequest(nil, ShortcutRequest{Graph: 3, Parts: [][]int{}})[:13],
		binary.AppendUvarint(nil, 1<<50)...))
	strs := NewInterner(16, 8)
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeShortcutRequest(b)
		ri, erri := DecodeShortcutRequestInterned(b, strs)
		if (err == nil) != (erri == nil) || err == nil && !sameRequest(ri, r) {
			t.Fatalf("interned decode %+v (%v), copying decode %+v (%v)", ri, erri, r, err)
		}
		if err != nil {
			return
		}
		if (r.Parts != nil) != (b[0] == 2) {
			t.Fatalf("version %d frame decoded Parts nil=%v", b[0], r.Parts == nil)
		}
		// The request envelope is never hashed, so padded varints making
		// two byte forms of one request are fine — but whatever decoded
		// must survive a re-encode round trip unchanged.
		r2, err := DecodeShortcutRequest(AppendShortcutRequest(nil, r))
		if err != nil {
			t.Fatalf("re-encode of accepted request does not decode: %v", err)
		}
		if !sameRequest(r2, r) {
			t.Fatalf("re-encode round trip changed the request: %+v vs %+v", r2, r)
		}
	})
}
